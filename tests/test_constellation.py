"""Codebook enumeration and the inverse norm power sum: brute-force
oracles, frozen regressions, invariance properties, and determinism."""

import itertools
import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from norm_oracle import exact_codebook, rounded_energy

from latticesec import constellation
from latticesec.constellation import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    SumReport,
    TableRow,
    _first_violation,
    _terms,
    carve_lowest_energy,
    inverse_norm_power_sum,
    reports_to_csv,
    table_sweep,
)
from latticesec.errors import DiversityError, DomainError
from latticesec.numfields import EllipsoidWalker, _box, _frac_det

# Frozen full-precision regressions for the shipped lattices, computed by
# this implementation and cross-checked against the published
# 6-significant-digit table values where those are reliable.
L1_S = {
    1: 1249545.6185517854,
    2: 3515786.767707168,
    3: 6094837.5397813935,
    4: 7659816.215786889,
}
L2_S = {
    1: 2837058.9849108425,
    2: 6460370.5284180185,
    3: 11649485.316265877,
    10: 36828681.6986842,
}
L3_TABLE2 = {
    # m: (size, p_max, p_ave, s_value)
    8: (79, 3.626028089755892, 2.6577758632568806, 1891949.6040485608),
    7: (2405, 35.56960888046256, 20.32772670359261, 7130240.828380058),
    # the (q, lex) carve, within 3.1e-14 of the exact norm-form oracle
    12: (2401, 24.000852594098525, 15.241097660065165, 8572911.547276571),
    14: (50975, 195.97818485109227, 106.62799193311898, 17234509.75807331),
    20: (208411, 399.89909789879266, 217.31130845275564, 24071625.91483873),
}


def test_codebook_counts():
    eye = np.eye(4)
    assert len(_box(4, 1)) == 81
    assert inverse_norm_power_sum(eye, 1, p_lim=0.5).size == 1
    assert len(_box(4, 2)) == 625


def test_codebook_lex_order_and_zero():
    # The one coefficient box: lex order, zero in the middle row, row
    # N-1-i the negation of row i, and each coordinate a contiguous column.
    for k, m in ((1, 3), (2, 1), (3, 2), (4, 2)):
        box = _box(k, m)
        assert box.flags.f_contiguous
        zs = [tuple(map(int, z)) for z in box]
        assert zs == sorted(zs)
        assert zs == list(itertools.product(range(-m, m + 1), repeat=k))
        assert not box[len(box) // 2].any()
        assert np.array_equal(box[::-1], -box)


def test_brute_force_oracle_n2():
    th = 0.7
    rot = np.array([[math.cos(th), math.sin(th)],
                    [-math.sin(th), math.cos(th)]]) * 1.3
    rep = inverse_norm_power_sum(rot, 2, p_lim=5.0, exponent=2)
    s = energy = p_max = 0.0
    size = 0
    for z1 in range(-2, 3):
        for z2 in range(-2, 3):
            x = np.array([z1, z2], float) @ rot
            q = float(x @ x)
            if q > 5.0:
                continue
            size += 1
            energy += q
            if (z1, z2) != (0, 0):
                p_max = max(p_max, q)
                s += 1.0 / (abs(x[0]) * abs(x[1])) ** 2
    assert rep.size == size
    assert rep.p_max == pytest.approx(p_max, rel=1e-12)
    assert rep.p_ave == pytest.approx(energy / size, rel=1e-12)
    assert rep.s_value == pytest.approx(s, rel=1e-12)


def test_orthonormal_closed_forms(lambda1, lambda2):
    # The catalogue's values of the table1 rows, bit for bit: the energies
    # are the exact q = ||z||^2, rounded once.
    for rep in table_sweep([(lambda1, TABLE1_ROWS), (lambda2, TABLE1_ROWS)]):
        m = rep.m
        assert rep.size == (2 * m + 1) ** 4
        assert rep.p_max == 4 * m * m
        assert rep.p_ave == float(Fraction(4 * m * (m + 1), 3))


def test_p_ave_includes_the_zero_word(lambda2):
    rep = inverse_norm_power_sum(lambda2.generator, 1)
    # 80 nonzero words of mean energy 27/10 average to 8/3 over all 81
    assert rep.p_ave == float(Fraction(8, 3))
    assert rep.size == 81


def test_frozen_sums_lambda1(lambda1):
    for m, s in L1_S.items():
        rep = inverse_norm_power_sum(lambda1.generator, m, lattice_name="lambda1")
        assert rep.s_value == pytest.approx(s, rel=1e-12)


def test_frozen_sums_lambda2(lambda2):
    for m, s in L2_S.items():
        rep = inverse_norm_power_sum(lambda2.generator, m, lattice_name="lambda2")
        assert rep.s_value == pytest.approx(s, rel=1e-12)


def test_frozen_table2_rows(lambda3):
    rows = {row.m: row for row in TABLE2_ROWS}
    for m, (size, p_max, p_ave, s) in L3_TABLE2.items():
        row = rows[m]
        if row.target_size is not None:
            rep = carve_lowest_energy(lambda3.generator, row.m, row.target_size)
        else:
            rep = inverse_norm_power_sum(lambda3.generator, row.m, p_lim=row.p_lim)
        assert rep.size == size
        assert rep.p_max == pytest.approx(p_max, rel=1e-12)
        assert rep.p_ave == pytest.approx(p_ave, rel=1e-12)
        assert rep.s_value == pytest.approx(s, rel=1e-12)


def test_carve_against_direct_selection(lambda3):
    # independent reimplementation of the lowest-energy carve at m=1
    rep = carve_lowest_energy(lambda3.generator, 1, 11)
    box = _box(4, 1)
    words = box @ lambda3.generator.entries
    pts = list(zip(map(tuple, box.astype(int).tolist()), words))
    keyed = sorted(pts, key=lambda zx: (float(zx[1] @ zx[1]), zx[0]))
    chosen = keyed[:11]
    s = math.fsum(
        1.0 / np.prod(np.abs(x)) ** 3 for z, x in chosen if any(z))
    assert rep.size == 11
    assert rep.s_value == pytest.approx(s, rel=1e-12)
    assert rep.p_max == pytest.approx(
        max(float(x @ x) for z, x in chosen if any(z)), rel=1e-12)

    # Exactly tied energies: [[1, 3], [3, -1]] maps z to the integer
    # vector (z1 + 3 z2, 3 z1 - z2) of squared norm 10 (z1^2 + z2^2), so
    # every cut below falls inside a shell and only the lex tie-break
    # decides. Targets 14..20 cut the shell z1^2 + z2^2 = 5, whose words
    # have |x1 x2| = 25 or 7, so S tells the chosen words apart.
    gen = np.array([[1.0, 3.0], [3.0, -1.0]])
    words = sorted(
        (10 * (z1 * z1 + z2 * z2), (z1, z2), (z1 + 3 * z2, 3 * z1 - z2))
        for z1, z2 in itertools.product(range(-2, 3), repeat=2))
    for target in (3, 7, 11, 14, 16, 18, 20):
        chosen = words[:target]
        rep = carve_lowest_energy(gen, 2, target)
        s = sum(Fraction(1, abs(x1 * x2) ** 3) for _, z, (x1, x2) in chosen
                if any(z))
        assert rep.size == target
        assert rep.s_value == pytest.approx(float(s), rel=1e-12)
        assert rep.p_max == chosen[-1][0]
        assert rep.p_ave == pytest.approx(
            sum(q for q, _, _ in chosen) / target, rel=1e-12)


def _inverse_power(prods, exponent):
    """The kernel's term formula on row products: the reciprocal r, then
    r^exponent by left-to-right square and multiply."""
    r = 1.0 / prods
    out = r
    for bit in bin(exponent)[3:]:
        out = out * out
        if bit == "1":
            out = out * r
    return out


def _column_formula(z, M):
    """(words, norms) of the coefficient rows z by the word formula, a
    column at a time: x_j = ((z_2 M_2j + z_3 M_3j) + ...) + z_1 M_1j,
    the rest sum being 0.0 for n = 1, and ((x_1^2 + x_2^2) + ...) + x_n^2."""
    n = len(M)
    words = np.empty((len(z), n))
    for j in range(n):
        rest = np.zeros(len(z)) if n == 1 else z[:, 1] * M[1, j]
        for i in range(2, n):
            rest = rest + z[:, i] * M[i, j]
        words[:, j] = rest + z[:, 0] * M[0, j]
    norms = words[:, 0] * words[:, 0]
    for j in range(1, n):
        norms = norms + words[:, j] * words[:, j]
    return words, norms


def _unfolded_sum(gen, m, p_lim=math.inf, target=None, exponent=3):
    """(size, p_max, p_ave, S) from all 2m+1 slices of the words that the
    rule keeps, each slice's words and norms by _column_formula.

    Keys are the exact energies z F z^T, in integers, where gen carries
    its form F, else the float norms. The rule keeps the rows keyed
    below a cut and the lex-first k keyed at it: for a sum, every row
    with ||x||^2 <= p_lim (q^n <= det(F) p_lim^n for exact keys); for a
    carve, the target rows lowest in (key, lex) order. p_max and p_ave
    are the largest and the mean key, for exact keys each an integer or
    a ratio of integers times det(F)^(-1/4), rounded once (gen is then a
    catalogued n = 4 lattice).
    """
    M = np.asarray(getattr(gen, "entries", gen))
    form = getattr(gen, "form", None)
    n = M.shape[0]
    grids = np.meshgrid(*([np.arange(-m, m + 1)] * (n - 1)), indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)
    zs = [np.insert(rest, 0, z1, axis=1) for z1 in range(-m, m + 1)]
    words, norms = zip(*(_column_formula(z.astype(float), M) for z in zs))
    if form is None:
        energies = norms
    else:
        energies = [np.einsum("ki,ij,kj->k", z, np.array(form), z) for z in zs]
    keys = np.concatenate(energies)
    if target is not None:
        # The rows are in lex order, so a stable sort on keys is (key, lex).
        keep = np.zeros(len(keys), dtype=bool)
        keep[np.argsort(keys, kind="stable")[:target]] = True
    elif form is None or math.isinf(p_lim):
        keep = keys <= p_lim
    else:
        bound = _frac_det(form) * Fraction(p_lim) ** n
        keep = np.array([q ** n <= bound for q in keys.tolist()])
    keep = keep.reshape(2 * m + 1, -1)
    size, top, s_parts, energy_parts = 0, 0.0, [], []
    for z1, block, energy, kept in zip(range(-m, m + 1), words, energies, keep):
        nonzero = kept & (np.any(rest != 0, axis=1) | (z1 != 0))
        size += int(np.count_nonzero(kept))
        energy_parts.append(energy[kept].tolist())
        if np.any(nonzero):
            terms = _inverse_power(np.prod(np.abs(block[nonzero]), axis=1), exponent)
            s_parts.append(math.fsum(terms))
            top = max(top, energy[nonzero].max().item())
    if form is None:
        p_max, p_ave = top, math.fsum(map(math.fsum, energy_parts)) / size
    else:
        det = int(_frac_det(form))
        p_max = rounded_energy(int(top), 1, det)
        p_ave = rounded_energy(sum(map(sum, energy_parts)), size, det)
    return size, p_max, p_ave, math.fsum(s_parts)


def test_folded_kernel_matches_unfolded_bits(lambda1, lambda2, lambda3):
    # Only slices z1 >= 0 are computed; the mirrored fold must reproduce
    # the full computation bit for bit, capped or not, with the exact
    # keys of the catalogued generators and with float keys of the same
    # entries as a plain array.
    for spec in (lambda1, lambda2, lambda3):
        for gen in (spec.generator, spec.generator.entries):
            for m, p_lim, exponent in ((1, math.inf, 3), (4, math.inf, 3),
                                       (5, 16.0, 3), (7, 30.5, 2), (9, 64.0, 3)):
                rep = inverse_norm_power_sum(gen, m, p_lim=p_lim, exponent=exponent)
                assert (rep.size, rep.p_max, rep.p_ave, rep.s_value) == \
                    _unfolded_sum(gen, m, p_lim, exponent=exponent)


@st.composite
def _codebooks(draw):
    """(lattice, m, p_lim, target_size): an energy cap, integer or not,
    or a carve, on a box of m <= 6."""
    lattice = draw(st.sampled_from(("lambda1", "lambda2", "lambda3")))
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("integer", "real", "carve")))
    if kind == "carve":
        return lattice, m, math.inf, draw(st.integers(1, (2 * m + 1) ** 4))
    if kind == "integer":
        return lattice, m, float(draw(st.integers(1, 5 * m * m))), None
    return lattice, m, draw(st.floats(0.25, 5.0 * m * m)), None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_codebooks())
@example(case=("lambda1", 4, 5e-324, None))
@example(case=("lambda2", 5, 5e-324, None))
@example(case=("lambda3", 6, 5e-324, None))
@example(case=("lambda1", 6, 1e308, None))
@example(case=("lambda2", 1, 1e308, None))
@example(case=("lambda3", 3, 1e308, None))
def test_codebooks_match_the_exact_oracle(lambda1, lambda2, lambda3, case):
    # Every catalogued sum and carve keeps the oracle's words, decided on
    # integer energies, so its size is the oracle's, and its p_max and
    # p_ave are the exact energies rounded once, so the oracle's bits; S
    # differs only by the float generator's rounding. The float range's
    # ends are caps too: 5e-324 keeps the zero word alone, and 1e308 the
    # whole box.
    lattice, m, p_lim, target = case
    gen = {"lambda1": lambda1, "lambda2": lambda2, "lambda3": lambda3}[lattice].generator
    if target is None:
        rep = inverse_norm_power_sum(gen, m, p_lim=p_lim)
    else:
        rep = carve_lowest_energy(gen, m, target)
    exact = exact_codebook(lattice, m, p_lim, target)
    assert rep.size == exact.size
    assert (rep.p_max, rep.p_ave) == (exact.p_max, exact.p_ave)
    assert rep.s_value == pytest.approx(exact.s_value, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.integers(0, 10 ** 15), b=st.integers(1, 10 ** 9),
       det=st.sampled_from((1, 2, 16, 1125)))
def test_energies_are_rounded_once(a, b, det):
    # (a / b) det^(-1/4), correctly rounded: against the oracle's integer
    # fourth root where det is no fourth power, else a / (b det^(1/4)).
    got = constellation._rounded(a, b, Fraction(det), 4)
    if det in (1, 16):
        assert got == float(Fraction(a, b * round(det ** 0.25)))
    else:
        assert got == rounded_energy(a, b, det)


def test_a_cap_past_the_box_skips_the_walk(lambda1, lambda2, lambda3, monkeypatch):
    # q_cap is decided in Fraction, so a cap of 1e308 does not overflow;
    # it holds the box, so the sum takes the whole box with no walk.
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(EllipsoidWalker, "vectors", no_walk)
    for spec in (lambda1, lambda2, lambda3):
        rep = inverse_norm_power_sum(spec.generator, 3, p_lim=1e308)
        assert rep == replace(inverse_norm_power_sum(spec.generator, 3), p_lim=1e308)


def test_ball_walker_keeps_every_word_in_the_ball(lambda1, lambda2, lambda3):
    # The shipped lattices, a diagonal one and the exactly tied [[1, 3],
    # [3, -1]], whose words all have integer energies 10 (z1^2 + z2^2).
    # The float norms of the words, by the word formula, are the keys a
    # plain generator's sum and carve test against a cap.
    gens = [spec.generator.entries for spec in (lambda1, lambda2, lambda3)]
    for M in gens + [np.eye(2), np.array([[1.0, 3.0], [3.0, -1.0]])]:
        n = M.shape[0]
        for m in range(1, 10):
            side = 2 * m + 1
            rest = _box(n - 1, m)
            norms = np.stack([_column_formula(np.insert(rest, 0, z1, axis=1), M)[1]
                              for z1 in range(-m, m + 1)])
            # Integer caps put words of lambda1, lambda2 and the tied
            # generator exactly on the sphere; the others sit one ulp either
            # side of a float norm of the box.
            caps = {1.0, 2.0, 10.0, float(m), float(m * m), float(3 * m * m)}
            for v in np.quantile(norms[norms > 0], (0.01, 0.1, 0.4)):
                caps |= {np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)}
            walker = EllipsoidWalker(M @ M.T, m)
            for p_lim in sorted(caps):
                if not p_lim < walker.box_top:
                    continue  # the sum takes the whole box, with no walk
                for z1 in range(-m, m + 1):
                    need = np.flatnonzero(norms[z1 + m] <= p_lim)
                    rest = walker.vectors(z1, p_lim)[:, 1:] + m
                    rows = np.ravel_multi_index(rest.astype(np.intp).T,
                                                (side,) * (n - 1))
                    assert np.all(np.diff(rows) > 0)
                    assert np.isin(need, rows).all(), (M, m, p_lim, z1)
                    # and it prunes: the visited words lie within a hair
                    # of the ball
                    assert np.all(norms[z1 + m][rows] <= p_lim + 1e-4), (M, m)


def test_carve_grows_its_ball_to_the_whole_box(lambda1, lambda2, lambda3):
    # Targets of the whole box and one word less make the carve's ball
    # grow until it holds the box; the middle ones cut a ball that the
    # box truncates. The shipped generators are taken with their exact
    # keys and, as plain arrays, with float keys.
    shipped = [g for spec in (lambda1, lambda2, lambda3)
               for g in (spec.generator, spec.generator.entries)]
    # The tied generator has a word with a zero coordinate from m = 3 on.
    tied = np.array([[1.0, 3.0], [3.0, -1.0]])
    for gen, ms in [(g, (1, 2, 6)) for g in shipped] + [(tied, (1, 2))]:
        for m in ms:
            box = (2 * m + 1) ** len(getattr(gen, "entries", gen))
            for target in (1, 7, box // 3, box - 1, box):
                rep = carve_lowest_energy(gen, m, target)
                assert (rep.size, rep.p_max, rep.p_ave, rep.s_value) == \
                    _unfolded_sum(gen, m, target=target), (gen, m, target)


def test_column_product_matches_numpy_prod(lambda1, lambda2, lambda3):
    # The kernel multiplies the coordinates column by column; on the
    # shipped lattices that is bit for bit what np.prod(axis=1) gives.
    for spec in (lambda1, lambda2, lambda3):
        x = _box(4, 6) @ spec.generator.entries
        absx = np.abs(np.delete(x, len(x) // 2, axis=0))
        for exponent in (2, 3):
            assert np.array_equal(_terms(absx, exponent, *np.empty((2, len(absx)))),
                                  _inverse_power(np.prod(absx, axis=1), exponent))


def test_products_stay_in_the_calling_thread(lambda1, lambda3, monkeypatch):
    # The words and norms take no matmul. A capped sum of a catalogued
    # generator makes one for each block's integer keys z F, which are
    # exact in any BLAS; each is within _BLOCK rows, so within the 65536 * 4
    # multiply-adds that OpenBLAS's gemm runs in the calling thread.
    calls = []
    matmul = np.matmul

    def recording_matmul(a, b, out=None):
        calls.append((a, b, out))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    inverse_norm_power_sum(lambda3.generator, 40, p_lim=1600.0)
    assert len(calls) >= 41
    form = np.array(lambda3.generator.form, dtype=float)
    for a, b, out in calls:
        assert np.array_equal(b, form) and np.array_equal(a, np.round(a))
        assert len(a) == len(out) <= constellation._BLOCK
        assert len(a) * a.shape[1] * b.shape[1] <= 1 << 17
    calls.clear()
    inverse_norm_power_sum(lambda1.generator, 10)
    inverse_norm_power_sum(lambda3.generator.entries, 10)
    inverse_norm_power_sum(lambda3.generator.entries, 20, p_lim=200.0)
    assert calls == []


def test_catalogued_energies_take_no_float_norm(lambda1, lambda3, monkeypatch):
    # A catalogued generator's energies are its exact keys, or closed
    # forms on the whole rest box: no float norm, and one _ExactSum (its
    # terms') per slice. A plain array's take the norms and a second one.
    made, norms, stats = [], [], []

    class Counted(constellation._ExactSum):
        def __init__(self, scratch):
            made.append(self)
            super().__init__(scratch)

    slices = constellation._Slices
    slices_norms, slices_stats = slices._norms, slices.stats
    monkeypatch.setattr(constellation, "_ExactSum", Counted)
    monkeypatch.setattr(slices, "_norms", lambda self, words: (
        norms.append(len(words)) or slices_norms(self, words)))
    monkeypatch.setattr(slices, "stats", lambda self, *args: (
        stats.append(args) or slices_stats(self, *args)))
    for m in (3, 9):
        inverse_norm_power_sum(lambda1.generator, m)
        inverse_norm_power_sum(lambda3.generator, m, p_lim=64.0)
        carve_lowest_energy(lambda3.generator, m, 2 * m ** 4)
        carve_lowest_energy(lambda1.generator, m, (2 * m + 1) ** 4 - 1)
    assert norms == [] and len(made) == len(stats) >= 4 * 2 * 4
    made.clear()
    stats.clear()
    inverse_norm_power_sum(lambda3.generator.entries, 3, p_lim=16.0)
    inverse_norm_power_sum(lambda1.generator.entries, 3)
    assert len(made) == 2 * len(stats) == 2 * 2 * 4 and norms


def _formula(z, M):
    """The word of z and its norm by the word formula, in Python floats."""
    n, x = len(M), []
    for j in range(n):
        rest = 0.0 if n == 1 else z[1] * M[1][j]
        for i in range(2, n):
            rest = rest + z[i] * M[i][j]
        x.append(rest + z[0] * M[0][j])
    norm = x[0] * x[0]
    for v in x[1:]:
        norm = norm + v * v
    return x, norm


def test_words_follow_the_column_formula(lambda1, lambda2, lambda3):
    # Sampled rows of the whole rest box and of walked capped slices hold
    # the word formula's words, and for a plain array its norms, the
    # keys, evaluated in Python floats, bit for bit: no BLAS or SIMD
    # kernel enters them. The samples take in the rows around the middle
    # of the box and its last row, whose words mirror the half block's
    # rest sums. A catalogued generator's walked rows are keyed by their
    # exact energies, and its whole box by none.
    def bits(values):
        return np.array(values, dtype=float).view(np.int64).tolist()

    rng = random.Random(2202)
    plain = [np.array([[1.7]]), np.array([[1.0, 0.3], [0.2, -1.1]]),
             np.array([[0.9, -0.7], [0.45, 1.35]])]
    gens = [spec.generator for spec in (lambda1, lambda2, lambda3)] + plain
    checked = mirrored = 0
    for gen in gens:
        M = np.asarray(getattr(gen, "entries", gen))
        for m, p_lim in ((5, math.inf), (7, 30.5)):
            slices = constellation._Slices(constellation._as_generator(gen), m, 3)
            cut = slices.cap(p_lim)
            if math.isinf(cut):
                slices.stats(0, cut)  # builds the half block
            box = _box(len(M) - 1, m)
            for z1 in range(-m, m + 1):
                z = None if math.isinf(cut) else slices.walker.vectors(z1, cut)
                rest = box if z is None else z[:, 1:]
                for words, keys, rows in slices._blocks(z1, z, cut, None):
                    sample = rng.sample(range(len(words)), min(len(words), 12))
                    if z is None:
                        middle = len(box) // 2
                        ends = {middle - 1, middle, middle + 1, len(box) - 1}
                        sample += [i for i, row in enumerate(rows) if row in ends]
                        mirrored += sum(rows[i] > middle for i in sample)
                    for i in sample:
                        zi = [z1, *map(int, rest[rows[i]])]
                        x, norm = _formula(zi, M.tolist())
                        assert bits(words[i]) == bits(x), (M, m, z1, rows[i])
                        if slices.form is None:
                            assert bits([keys[i]]) == bits([norm]), (M, m, z1, rows[i])
                        elif z is None:
                            assert keys is None
                        else:
                            q = sum(f * a * b for row, a in zip(gen.form, zi)
                                    for f, b in zip(row, zi))
                            assert keys[i] == q, (m, zi)
                        checked += 1
    assert checked > 1000 and mirrored > 100


def _outcome(f, *args, **kwargs):
    """The full-precision CSV row of f's report, or what it raised."""
    try:
        return reports_to_csv([f(*args, **kwargs)], full_precision=True)
    except DiversityError as exc:
        return str(exc), exc.coeff_vector, exc.coordinate_index, exc.value


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_block_size_does_not_change_results(lambda1, lambda2, lambda3,
                                            monkeypatch, block):
    # Every row's arithmetic is its own, so the rows per block must not
    # move a bit. The uncapped sums at m = 2, 3, 4 put slice 0's zero row
    # at rest rows 62, 171 and 364: at the start or the end of a block
    # for each size here. At m = 8, p_lim 4, slices 5..8 of lambda3 have
    # no candidates. The skewed generator's lex-first zero coordinate is
    # at (-9, 0): row 9 of its slice uncapped, row 7 capped, so in a
    # later block than the first.
    g1, g2, g3 = lambda1.generator, lambda2.generator, lambda3.generator
    skew = np.array([[1.0, 0.0], [-2.0, 1.0]])
    M3 = g3.entries
    assert len(EllipsoidWalker(M3 @ M3.T, 8).vectors(5, 4.0)) == 0

    def outcomes():
        out = []
        for gen, m, p_lim in ((g1, 2, math.inf), (g2, 3, math.inf),
                              (g3, 4, math.inf), (g3, 8, 4.0),
                              (g3, 9, 64.0), (g1, 5, 20.0),
                              (skew, 9, math.inf), (skew, 9, 90.0)):
            out.append(_outcome(inverse_norm_power_sum, gen, m, p_lim=p_lim))
        for gen, m, target in ((g3, 6, 500), (g2, 3, 600), (skew, 3, 20)):
            out.append(_outcome(carve_lowest_energy, gen, m, target))
        return out

    want = outcomes()
    assert want[6][1] == want[7][1] == (-9, 0)
    monkeypatch.setattr(constellation, "_BLOCK", block)
    assert outcomes() == want


def test_overflowing_energy_raises_before_any_term():
    # Norms near 1e308 overflow the energy sum; math.fsum raises, and no
    # term, whose coordinate product would overflow too, is taken first
    # (a warning here would be an error).
    for m in (3, 40):
        with pytest.raises(OverflowError):
            inverse_norm_power_sum(np.array([[1.0, 0.5], [0.25, -1.0]]) * 1e154, m)


def test_slice_memory_does_not_grow_with_the_slice(lambda1):
    # A slice streams through the fixed scratch made with its _Slices: a slice allocates no array of its own size. So the peak
    # of one uncapped slice is the same at m = 10 (9261 rest rows) as at
    # m = 25 (132651), and a fraction of the scratch.
    peaks = {}
    for m in (10, 25):
        slices = constellation._Slices(lambda1.generator, m, 3)
        cut = slices.cap(math.inf)
        slices.stats(1, cut)  # builds the half block
        scratch = sum(a.nbytes for a in vars(slices.scratch).values())
        for z1 in (0, 1):
            tracemalloc.start()
            try:
                slices.stats(z1, cut)
                peaks[m, z1] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert max(peaks.values()) < scratch
    assert peaks[25, 1] < 2 * peaks[10, 1]


def test_whole_box_state_is_half_the_rest_sums(lambda1):
    # An uncapped sum keeps the rest sums of rows 0..(N-1)/2 of the rest
    # box, ceil(N/2) n float64s (2.12 MB at m = 25), built from pieces of
    # _BLOCK coefficient rows. So the first uncapped slice peaks at them,
    # one piece and a small margin, with neither the rest box (3.2 MB)
    # nor its full block of rest sums (4.2 MB).
    m, n = 25, 4
    slices = constellation._Slices(lambda1.generator, m, 3)
    cut = slices.cap(math.inf)
    tracemalloc.start()
    try:
        slices.stats(0, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    half = ((2 * m + 1) ** (n - 1) + 1) // 2
    assert peak < half * n * 8 + constellation._BLOCK * (n - 1) * 8 + 2 ** 19, peak
    assert slices.half.shape == (half, n)


def test_capped_sums_build_no_rest_box(lambda3, monkeypatch):
    # Uncapped, or with a ball that holds the box, a sum takes the rest
    # sums of half the rest box {-m..m}^3, from pieces of at most _BLOCK
    # coefficient rows, and allocates no array of the box's 343 rows;
    # capped, each slice multiplies only the walker's candidates, and no
    # box is built.
    boxes = []

    def recording_box(k, m, start=0, stop=None):
        boxes.append((k, m, start, stop))
        return _box(k, m, start, stop)

    monkeypatch.setattr(constellation, "_box", recording_box)
    monkeypatch.setattr(constellation, "_BLOCK", 100)
    real_empty, shapes = np.empty, []

    def recording_empty(shape, *args, **kwargs):
        shapes.append(shape)
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(constellation.np, "empty", recording_empty)
    gen = lambda3.generator
    inverse_norm_power_sum(gen, 9, p_lim=64.0)
    assert boxes == []
    for p_lim in (math.inf, 1e6):
        inverse_norm_power_sum(gen, 3, p_lim=p_lim)
    pieces = [(3, 3, 0, 100), (3, 3, 100, 172)]
    assert boxes == 2 * pieces
    assert (172, 4) in shapes and not any(
        343 in (s if isinstance(s, tuple) else (s,)) for s in shapes)

def test_integer_arguments_of_any_integer_type_but_bool(lambda3):
    # numpy integers are integers; a bool is not a box bound or a count.
    gen = lambda3.generator
    rep = inverse_norm_power_sum(gen, np.int64(3), exponent=np.int32(3))
    assert rep == inverse_norm_power_sum(gen, 3) and type(rep.m) is int
    rep = carve_lowest_energy(gen, np.int64(3), np.int64(10))
    assert rep == carve_lowest_energy(gen, 3, 10)
    assert type(rep.m) is int and type(rep.target_size) is int
    for kwargs in ({"m": True}, {"m": 2, "exponent": True}, {"m": 2.0},
                   {"m": np.int64(0)}):
        with pytest.raises(DomainError):
            inverse_norm_power_sum(gen, **kwargs)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, True)


def test_capped_diversity_failure_names_the_lex_first_word():
    # With a cap the kernel visits only some rows of each slice; the
    # offender must still map back to its own coefficient vector.
    with pytest.raises(DiversityError) as err:
        inverse_norm_power_sum(np.eye(2), 2, p_lim=2.5)
    assert err.value.coeff_vector == (-1, 0)
    assert err.value.coordinate_index == 1


def test_carve_selects_by_energy(lambda3):
    full = inverse_norm_power_sum(lambda3.generator, 2)
    carved = carve_lowest_energy(lambda3.generator, 2, 100)
    assert carved.size == 100
    assert carved.p_max <= full.p_max
    assert carved.target_size == 100


def test_monotonicity_random_configs(lambda1, lambda2, lambda3):
    rng = random.Random(987654321)
    specs = (lambda1, lambda2, lambda3)
    for _ in range(20):
        spec = rng.choice(specs)
        m = rng.randint(1, 3)
        p_lim = rng.uniform(2.0, 30.0)
        small = inverse_norm_power_sum(spec.generator, m, p_lim=p_lim)
        grown_m = inverse_norm_power_sum(spec.generator, m + 1, p_lim=p_lim)
        grown_p = inverse_norm_power_sum(spec.generator, m, p_lim=2.0 * p_lim)
        assert small.s_value <= grown_m.s_value
        assert small.s_value <= grown_p.s_value
        assert small.size <= min(grown_m.size, grown_p.size)


def test_sign_permutation_invariance(lambda3):
    rng = random.Random(13572468)
    base = inverse_norm_power_sum(lambda3.generator, 2, p_lim=9.0)
    entries = lambda3.generator.entries
    for _ in range(10):
        perm = rng.sample(range(4), 4)
        signs = [rng.choice((-1.0, 1.0)) for _ in range(4)]
        twisted = entries[:, perm] * np.array(signs)
        rep = inverse_norm_power_sum(twisted, 2, p_lim=9.0)
        assert rep.size == base.size
        assert rep.s_value == pytest.approx(base.s_value, rel=1e-12)
        assert rep.p_max == pytest.approx(base.p_max, rel=1e-12)
        assert rep.p_ave == pytest.approx(base.p_ave, rel=1e-12)


def test_one_slice_block_per_sum(lambda3, monkeypatch):
    # A sum builds one _Slices, and the rescan of a mirrored diversity
    # failure reuses it.
    built = []

    class Counted(constellation._Slices):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(constellation, "_Slices", Counted)
    inverse_norm_power_sum(lambda3.generator, 9, p_lim=64.0)
    with pytest.raises(DiversityError):
        inverse_norm_power_sum(np.eye(2), 1)
    assert len(built) == 2


def test_diversity_failure_reported():
    # The lex-first offending word is (-1, 0) -> (-1, 0), in slice z1 = -1,
    # which the folded kernel only mirrors from slice z1 = 1.
    with pytest.raises(DiversityError) as err:
        inverse_norm_power_sum(np.eye(2), 1)
    assert "coefficient vector" in str(err.value)
    assert err.value.coeff_vector == (-1, 0)
    assert err.value.coordinate_index == 1
    assert err.value.value == 0.0
    # The carve reports the lex-first offender among its words.
    with pytest.raises(DiversityError) as err:
        carve_lowest_energy(np.eye(2), 1, 9)
    assert err.value.coeff_vector == (-1, 0)
    assert err.value.coordinate_index == 1


def test_mirrored_diversity_failure_matches_a_lex_scan():
    # Each lex-first offender lies above the middle of its slice's rest
    # box, where the words mirror the half block's rest sums, and in a
    # slice z1 < 0, which the fold rescans. Its vector, coordinate and
    # value are those of a brute-force lex scan by the word formula; the
    # first case's value is a rounding residue, not a zero.
    cases = (([[0.1, 1.0], [0.3, -0.7]], 3),
             ([[2.0, 1.0, -1.0], [-1.0, 2.0, -2.0], [0.0, 0.5, -2.0]], 3),
             ([[-2.0, -1.0, 0.5], [-2.0, 2.0, -1.0], [0.5, -2.0, 2.0]], 3))
    values = []
    for M, m in cases:
        n = len(M)
        for z in itertools.product(range(-m, m + 1), repeat=n):
            absx = [abs(v) for v in _formula(z, M)[0]]
            if any(z) and min(absx) < constellation.DIVERSITY_EPS:
                want = z, absx.index(min(absx)), min(absx)
                break
        side = 2 * m + 1
        rest_row = sum((c + m) * side ** (n - 2 - k) for k, c in enumerate(want[0][1:]))
        assert want[0][0] < 0 and rest_row > side ** (n - 1) // 2
        with pytest.raises(DiversityError) as err:
            inverse_norm_power_sum(np.array(M), m)
        got = err.value.coeff_vector, err.value.coordinate_index, err.value.value
        assert got == want and type(got[2]) is float
        values.append(got[2])
    assert values[0] > 0.0 == values[1] == values[2]


def test_diversity_scan_finds_the_first_offending_row():
    def old_first_violation(absx):
        # Reference: the row minimum, taken column by column.
        row_min = absx[:, 0].copy()
        for j in range(1, absx.shape[1]):
            np.minimum(row_min, absx[:, j], out=row_min)
        if not float(row_min.min()) < constellation.DIVERSITY_EPS:
            return None
        first = int(np.argmax(row_min < constellation.DIVERSITY_EPS))
        coord = int(np.argmin(absx[first]))
        return first, coord, float(absx[first, coord])

    absx = np.full((7, 4), 0.5)
    assert _first_violation(absx) is None is old_first_violation(absx)
    absx[5, 1] = 1e-13
    absx[2, 3] = 4e-13
    absx[2, 0] = 3e-13
    assert _first_violation(absx) == (2, 0, 3e-13) == old_first_violation(absx)


@pytest.mark.parametrize("entry", [math.nan, math.inf, 1.0])
def test_plain_generators_pass_the_generator_checks(entry):
    # A plain array is checked as a GeneratorMatrix: square, finite and
    # of nonzero determinant ([[1, 1], [1, 1]] for entry 1.0).
    gen = np.array([[1.0, 1.0], [entry, 1.0]])
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 2)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 2, p_lim=5.0)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 2, 5)


@pytest.mark.parametrize("gen", [
    pytest.param(np.array([[1.0, 0.5], [0.25, -1.0]]) * 1e160, id="det"),
    pytest.param(np.array([[1e200, 1.0], [1.0, 1e-180]]), id="gram")])
def test_generators_whose_det_or_gram_overflows_are_refused(gen):
    # The determinant overflows, or it is 1e20 and the Gram matrix M M^T
    # overflows: either is refused by the gate, with no numpy warning and
    # before the walker sees the Gram.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            inverse_norm_power_sum(gen, 2)
        with pytest.raises(DomainError, match="overflows"):
            inverse_norm_power_sum(gen, 2, p_lim=5.0)
        with pytest.raises(DomainError, match="overflows"):
            carve_lowest_energy(gen, 2, 5)


def test_argument_validation(lambda3):
    gen = lambda3.generator
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 0)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 1, p_lim=0.0)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 1, exponent=0)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, 0)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, 82)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(np.zeros((2, 3)), 1)
    with pytest.raises(DomainError):
        table_sweep([(lambda3, [TableRow(3, p_lim=4.0, target_size=10)])])


def test_sum_report_guards():
    # p_max <= p_lim holds exactly, for float norms and for exact
    # energies rounded once, so one ulp above p_lim is refused.
    for p_max in (9.0, math.nextafter(4.0, math.inf)):
        with pytest.raises(DomainError):
            SumReport("x", 2, 1, p_lim=4.0, size=5, p_max=p_max, p_ave=1.0,
                      s_value=1.0)
    assert SumReport("x", 2, 1, p_lim=4.0, size=5, p_max=4.0, p_ave=1.0,
                     s_value=1.0).p_max == 4.0
    for s_value in (-1.0, math.nan):
        with pytest.raises(DomainError):
            SumReport("x", 2, 1, p_lim=math.inf, size=5, p_max=1.0, p_ave=1.0,
                      s_value=s_value)


def test_an_underflowed_sum_is_returned_as_zero():
    # A fully diverse generator whose S, about 1e-358, is below the
    # smallest subnormal: the sum and the carve report 0.0, as theta
    # reports an underflowed value.
    gen = np.array([[1.0, 0.3], [0.2, -1.1]]) * 1e60
    for rep in (inverse_norm_power_sum(gen, 2), carve_lowest_energy(gen, 2, 10)):
        assert rep.s_value == 0.0 and rep.p_max > 0.0


def test_csv_shape(lambda2):
    rep = inverse_norm_power_sum(lambda2.generator, 1, lattice_name="lambda2")
    text = reports_to_csv([rep])
    lines = text.splitlines()
    assert lines[0] == "lattice,m,p_lim,size,p_max,p_ave,s_value"
    assert lines[1] == "lambda2,1,inf,81,4.00,2.67,2.83706e+06"
    assert text.endswith("\n")


def test_csv_carve_row(lambda3):
    rep = carve_lowest_energy(lambda3.generator, 1, 11, lattice_name="lambda3")
    line = reports_to_csv([rep]).splitlines()[1]
    assert line.startswith("lambda3,1,,11,")


def test_table_row_defaults():
    row = TableRow(m=3)
    assert math.isinf(row.p_lim) and row.target_size is None
    assert len(TABLE1_ROWS) == 10
    assert len(TABLE2_ROWS) == 11


def test_table_sweep_row_order(lambda3):
    reports = table_sweep([(lambda3, [TableRow(1), TableRow(2, p_lim=4.0)])])
    assert [r.m for r in reports] == [1, 2]
    assert reports[0].lattice_name == "lambda3"
    assert math.isinf(reports[0].p_lim) and reports[1].p_lim == 4.0
