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

from latticesec import constellation, numfields
from latticesec.constellation import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    SumReport,
    TableRow,
    _lex_first,
    _terms,
    carve_lowest_energy,
    inverse_norm_power_sum,
    reports_to_csv,
    table_sweep,
)
from latticesec.errors import DiversityError, DomainError
from latticesec.numfields import EllipsoidWalker, GeneratorMatrix, _box, _expand, _frac_det

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
    rep = inverse_norm_power_sum(rot, 2, p_lim=5.0)
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
                s += 1.0 / (abs(x[0]) * abs(x[1])) ** 3
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


def _inverse_cube(prods):
    """The kernel's term formula on row products: the reciprocal r, then
    (r*r)*r."""
    r = 1.0 / prods
    return (r * r) * r


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


def _unfolded_sum(gen, m, p_lim=math.inf, target=None):
    """(size, p_max, p_ave, S) from all 2m+1 slices of the words that the
    rule keeps, each slice's words and norms by _column_formula.

    Keys are the exact energies z F z^T, in integers, where gen carries
    its form F, else the float norms. The rule keeps the rows keyed
    below a cut and the lex-first k keyed at it: for a sum, every row
    with ||x||^2 <= p_lim (q^n <= det(F) p_lim^n for exact keys); for a
    carve, the target rows lowest in (key, lex) order. S is math.fsum of
    every kept word's term, rounded once. p_max and p_ave are the largest
    and the mean key: for exact keys each an integer or a ratio of
    integers times det(F)^(-1/4), rounded once (gen is then a catalogued
    n = 4 lattice); for float keys the largest norm and math.fsum of all
    the norms over the size.
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
    size, top, terms, kept_energies = 0, 0.0, [], []
    for z1, block, energy, kept in zip(range(-m, m + 1), words, energies, keep):
        nonzero = kept & (np.any(rest != 0, axis=1) | (z1 != 0))
        size += int(np.count_nonzero(kept))
        kept_energies += energy[kept].tolist()
        if np.any(nonzero):
            terms += _inverse_cube(np.prod(np.abs(block[nonzero]), axis=1)).tolist()
            top = max(top, energy[nonzero].max().item())
    if form is None:
        p_max, p_ave = top, math.fsum(kept_energies) / size
    else:
        det = int(_frac_det(form))
        p_max = rounded_energy(int(top), 1, det)
        p_ave = rounded_energy(sum(kept_energies), size, det)
    return size, p_max, p_ave, math.fsum(terms)


def test_folded_kernel_matches_unfolded_bits(lambda1, lambda2, lambda3):
    # Only half the codebook is computed, each word standing for its
    # negation too; rounded once, the fold must reproduce the full
    # computation bit for bit, capped or not, with the exact keys of the
    # catalogued generators and with float keys of the same entries as a
    # plain array.
    for spec in (lambda1, lambda2, lambda3):
        for gen in (spec.generator, spec.generator.entries):
            for m, p_lim in ((1, math.inf), (4, math.inf), (5, 16.0), (7, 30.5), (9, 64.0)):
                rep = inverse_norm_power_sum(gen, m, p_lim=p_lim)
                assert (rep.size, rep.p_max, rep.p_ave, rep.s_value) == \
                    _unfolded_sum(gen, m, p_lim)


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

    monkeypatch.setattr(EllipsoidWalker, "nodes", no_walk)
    for spec in (lambda1, lambda2, lambda3):
        rep = inverse_norm_power_sum(spec.generator, 3, p_lim=1e308)
        assert rep == replace(inverse_norm_power_sum(spec.generator, 3), p_lim=1e308)


def test_ball_walker_keeps_every_word_in_the_ball(lambda1, lambda2, lambda3):
    # The shipped lattices and Z^2 with its form I. The exact energies
    # q = z F z^T of the words are the keys a catalogued generator's sum
    # and carve test against a cut. The walker a generator builds walks F
    # with z1 last, so its words come rest vector by rest vector, each
    # with its run of z1 and that run's exact quadratic in z1.
    gens = [spec.generator for spec in (lambda1, lambda2, lambda3)]
    for gen in gens + [GeneratorMatrix(np.eye(2), ((1, 0), (0, 1)))]:
        n, walker = gen.n, gen.walker
        for m in range(1, 10):
            side = 2 * m + 1
            box = _box(n, m).astype(np.int64)
            keys = np.einsum("ki,ij,kj->k", box, np.array(gen.form), box)
            # Integer caps put words exactly on the sphere, and so do the
            # keys of the box one either side.
            caps = {1, 2, 10, m, m * m, 3 * m * m}
            for v in np.quantile(keys[keys > 0], (0.01, 0.1, 0.4)).astype(int).tolist():
                caps |= {v - 1, v, v + 1}
            for cap in sorted(caps):
                if not cap < m * m * walker.corner:
                    continue  # the sum takes the whole box, with no walk
                rows, q = [], []
                for r, lo, runs, c, b in walker.nodes(cap, m):
                    parent, z1 = _expand(lo, runs)
                    rows.append((r[parent] + m) @ side ** np.arange(n - 2, -1, -1) * side
                                + z1 + m)
                    q.append(c[parent] + z1 * (2 * b[parent] + gen.form[0][0] * z1))
                rows = np.concatenate(rows)
                # rest-major lex order: by the rest vector, then by z1
                assert np.all(np.diff(rows) > 0)
                index = rows % side * side ** (n - 1) + rows // side
                # exactly the words of the ball, each with its exact key
                assert np.array_equal(np.sort(index), np.flatnonzero(keys <= cap)), (gen, m, cap)
                assert np.array_equal(np.concatenate(q), keys[index]), (gen, m, cap)


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
        assert np.array_equal(_terms(absx, *np.empty((2, len(absx)))),
                              _inverse_cube(np.prod(absx, axis=1)))


def test_products_stay_in_the_calling_thread(lambda1, lambda3, monkeypatch):
    # The words and norms take no matmul, and a walked run's energies come
    # with it from the walker, so no sum calls np.matmul, capped or not,
    # carved or not, nor does a plain array's scan of the box.
    calls = []
    matmul = np.matmul

    def recording_matmul(*args, **kwargs):
        calls.append(args)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    inverse_norm_power_sum(lambda3.generator, 40, p_lim=1600.0)
    carve_lowest_energy(lambda3.generator, 12, 2401)
    inverse_norm_power_sum(lambda1.generator, 10)
    inverse_norm_power_sum(lambda3.generator.entries, 10)
    inverse_norm_power_sum(lambda3.generator.entries, 20, p_lim=200.0)
    assert calls == []


def test_catalogued_energies_take_no_float_norm(lambda1, lambda3, monkeypatch):
    # A catalogued generator's energies are its exact keys, from each
    # walked run's ends and closed form, or closed forms on the whole
    # box: no float norm, and one _ExactSum, its terms', per codebook. A
    # plain array's scan takes the norms and a second one.
    made, norms, reports = [], [], []

    class Counted(constellation._ExactSum):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    real_norms = constellation._norms
    monkeypatch.setattr(constellation, "_ExactSum", Counted)
    monkeypatch.setattr(constellation, "_norms", lambda words: (
        norms.append(len(words)) or real_norms(words)))
    for codebook in (constellation._Codebook, constellation._Scan):
        monkeypatch.setattr(codebook, "report", lambda self, *args, report=codebook.report,
                            **kwargs: reports.append(args) or report(self, *args, **kwargs))
    for m in (3, 9):
        inverse_norm_power_sum(lambda1.generator, m)
        inverse_norm_power_sum(lambda3.generator, m, p_lim=64.0)
        carve_lowest_energy(lambda3.generator, m, 2 * m ** 4)
        carve_lowest_energy(lambda1.generator, m, (2 * m + 1) ** 4 - 1)
    assert norms == [] and len(made) == len(reports) == 4 * 2
    made.clear()
    reports.clear()
    inverse_norm_power_sum(lambda3.generator.entries, 3, p_lim=16.0)
    inverse_norm_power_sum(lambda1.generator.entries, 3)
    assert len(made) == 2 * len(reports) == 2 * 2 and norms


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


def _rest_rows(z, m):
    """The row numbers in the rest box {-m..m}^(n-1) of the rest vectors
    of the coefficient rows z."""
    side, n = 2 * m + 1, z.shape[1]
    return (z[:, 1:] + m) @ side ** np.arange(n - 2, -1, -1)


def test_words_follow_the_column_formula(lambda1, lambda2, lambda3):
    # Sampled rows of the whole box's half, of walked capped halves and of
    # a plain array's scan hold the word formula's words, and the scan's
    # norms, evaluated in Python floats, bit for bit: no BLAS or SIMD
    # kernel enters them. The whole box's samples take in its first rest
    # vector, the last below zero and the zero one, and more than 100
    # words with z1 < 0. A catalogued generator's walked blocks carry the
    # largest and the sum of their exact energies, and its whole box none.
    def bits(values):
        return np.array(values, dtype=float).view(np.int64).tolist()

    rng = random.Random(2202)
    checked = negative = 0
    for gen in (spec.generator for spec in (lambda1, lambda2, lambda3)):
        M, n = gen.entries, gen.n
        for m, p_lim in ((5, math.inf), (7, 30.5)):
            codebook = constellation._Codebook(gen, m)
            cut = codebook.cap(p_lim)
            whole = not cut < codebook.box_top
            middle = (2 * m + 1) ** (n - 1) // 2
            blocks = codebook._box_blocks() if whole else codebook._walked(cut, False)
            for words, keys, coeffs in blocks:
                z = coeffs(np.arange(len(words)))
                sample = rng.sample(range(len(words)), min(len(words), 200))
                if whole:
                    rows = _rest_rows(z, m)
                    ends = {0, middle - 1, middle}
                    sample += np.flatnonzero(np.isin(rows, list(ends))).tolist()
                    negative += sum(z[i][0] < 0 for i in sample)
                for i in sample:
                    x, _ = _formula([int(v) for v in z[i]], M.tolist())
                    assert bits(words[i]) == bits(x), (M, m, z[i])
                    checked += 1
                q = np.einsum("ki,ij,kj->k", z.astype(np.int64), np.array(gen.form), z.astype(np.int64))
                assert keys == (None if whole else (q.max(), q.sum())), (m, keys)
    plain = [np.array([[1.7]]), np.array([[1.0, 0.3], [0.2, -1.1]]),
             np.array([[0.9, -0.7], [0.45, 1.35]])]
    for M in plain:
        for m in (5, 7):
            scan = constellation._Scan(constellation._as_generator(M), m)
            for words, _, coeffs in scan._box_blocks():
                z, norms = coeffs(np.arange(len(words))), constellation._norms(words)
                for i in rng.sample(range(len(z)), min(len(z), 200)):
                    x, norm = _formula([int(v) for v in z[i]], M.tolist())
                    assert bits(words[i]) == bits(x), (M, m, z[i])
                    assert bits([norms[i]]) == bits([norm]), (M, m, z[i])
                    checked += 1
    assert checked > 1000 and negative > 100


def _python_terms(words):
    """The kernel's term of each word in Python floats: the product
    ((a0*a1)*a2)*... of the |x_i|, its reciprocal r, then (r*r)*r."""
    terms = []
    for x in words:
        prod = abs(x[0])
        for v in x[1:]:
            prod = prod * abs(v)
        r = 1.0 / prod
        terms.append((r * r) * r)
    return terms


def test_unfolded_terms_are_rounded_once(lambda1, lambda2, lambda3):
    # S is math.fsum of every kept word's term: the exact sum, rounded
    # once, whatever order or split the kernel takes the words in. The
    # words come from the word formula in Python floats, and the rule
    # from a scan of the box: exact keys z F z^T for the catalogued
    # generators, float norms for plain arrays, a carve's ties by lex
    # order. lambda1 m = 3 and m = 5, and the m = 4 carve to 300, are
    # sums where rounding each slice's sum first gives another S. Seeded
    # random plain generators, n = 1..4 at m = 1..3, pin the scan's
    # contract: a carve to an even size splits a pair +-z of equal norm.
    tied = np.array([[1.0, 3.0], [3.0, -1.0]])
    skew3 = np.array([[1.0, math.sqrt(2) - 1, -math.sqrt(3) / 7],
                      [math.sqrt(5) / 9, 1.2, math.sqrt(7) / 6],
                      [-math.sqrt(11) / 13, math.sqrt(13) / 17, 0.93]])
    cases = [(lambda1.generator, 3, math.inf, None), (lambda1.generator, 5, math.inf, None),
             (lambda1.generator, 4, math.inf, 300), (lambda2.generator, 4, 30.5, None),
             (lambda3.generator, 4, 30.5, None), (lambda3.generator, 4, math.inf, 500),
             (lambda1.generator.entries, 3, math.inf, None),
             (lambda3.generator.entries, 3, 16.0, None),
             (lambda2.generator.entries, 3, math.inf, 50),
             (tied, 2, math.inf, 14), (tied, 2, math.inf, 17),
             (skew3, 6, math.inf, None), (skew3, 6, 7.5, None), (skew3, 6, math.inf, 400)]
    rng = np.random.default_rng(3131)
    for n in (1, 2, 3, 4):
        for gen in (rng.normal(size=(n, n)), rng.normal(size=(n, n))):
            for m in (1, 2, 3):
                box = (2 * m + 1) ** n
                cases += [(gen, m, p_lim, None) for p_lim in (math.inf, 2.0, 9.5)]
                cases += [(gen, m, math.inf, target) for target in (2, box // 3, box // 2 + 1)]
    scans = {}
    for gen, m, p_lim, target in cases:
        M = np.asarray(getattr(gen, "entries", gen)).tolist()
        form = getattr(gen, "form", None)
        n = len(M)
        if (id(gen), m) not in scans:
            scans[id(gen), m] = []
            for z in itertools.product(range(-m, m + 1), repeat=n):
                x, norm = _formula(z, M)
                key = norm if form is None else sum(
                    f * a * b for row, a in zip(form, z) for f, b in zip(row, z))
                scans[id(gen), m].append((key, z, x))
        scanned = scans[id(gen), m]
        if target is not None:
            kept = sorted(scanned, key=lambda w: (w[0], w[1]))[:target]
            rep = carve_lowest_energy(gen, m, target)
        else:
            if form is None or math.isinf(p_lim):
                kept = [w for w in scanned if w[0] <= p_lim]
            else:
                bound = _frac_det(form) * Fraction(p_lim) ** n
                kept = [w for w in scanned if Fraction(w[0]) ** n <= bound]
            rep = inverse_norm_power_sum(gen, m, p_lim=p_lim)
        terms = _python_terms([x for _, z, x in kept if any(z)])
        assert rep.size == len(kept), (gen, m, p_lim, target)
        assert rep.s_value == math.fsum(terms), (gen, m, p_lim, target)
        if form is None:
            assert rep.p_max == max([k for k, z, _ in kept if any(z)], default=0.0)
            assert rep.p_ave == math.fsum(k for k, _, _ in kept) / len(kept)


@st.composite
def _rules(draw):
    """(lattice, m, p_lim, target_size) of a catalogued sum or carve on a
    box of m <= 4."""
    lattice = draw(st.sampled_from(("lambda1", "lambda2", "lambda3")))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return lattice, m, math.inf, draw(st.integers(1, (2 * m + 1) ** 4))
    return lattice, m, draw(st.floats(0.25, 5.0 * m * m)), None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_rules())
@example(case=("lambda3", 12, math.inf, 2401))
@example(case=("lambda2", 3, math.inf, 600))
@example(case=("lambda1", 4, math.inf, 300))
def test_rest_major_runs_carve_the_exact_oracle(lambda1, lambda2, lambda3, case):
    # The walked half holds, rest vector by rest vector, exactly one of
    # each pair +-z of box words keyed below the cut (at or below it,
    # unless a carve splits the words keyed cut), and each block carries
    # the largest and the sum of their exact energies. A carve gathers one
    # of each pair keyed cut, and keeps the lex-first of them and their
    # negations, so its ties split across signs: 30 of the 48 words of
    # the shell q = 139 at lambda3 m = 12, 18 of them without their
    # negation. The codebook's size and energies are the exact oracle's.
    lattice, m, p_lim, target = case
    gen = {"lambda1": lambda1, "lambda2": lambda2, "lambda3": lambda3}[lattice].generator
    codebook = constellation._Codebook(gen, m)
    cut, left = codebook.cut(target) if target else (codebook.cap(p_lim), None)
    box = _box(4, m).astype(np.int64)
    q = np.einsum("ki,ij,kj->k", box, np.array(gen.form), box)
    half = []
    for words, keys, coeffs in codebook._walked(cut, left is not None):
        z = coeffs(np.arange(len(words)))
        zq = np.einsum("ki,ij,kj->k", z, np.array(gen.form), z)
        assert keys == (zq.max(), zq.sum())
        half += [tuple(v) for v in z.tolist()]
    below = q < cut if left is not None else q <= cut
    want = {tuple(v) for v in box[below & box.any(axis=1)].tolist()}
    got = set(half)
    negated = {tuple(-c for c in v) for v in got}
    assert len(got) == len(half) and got.isdisjoint(negated) and got | negated == want
    keep = want | {(0, 0, 0, 0)}
    if left is not None:
        tied = {tuple(v) for v in np.concatenate(codebook.tied).tolist()}
        shell = {tuple(v) for v in box[q == cut].tolist()}
        assert tied.isdisjoint({tuple(-c for c in v) for v in tied})
        assert tied | {tuple(-c for c in v) for v in tied} == shell
        keep |= set(sorted(shell)[:left])
    exact = exact_codebook(lattice, m, p_lim, target)
    energies = [int(np.dot(np.dot(v, gen.form), v)) for v in keep]
    assert (len(keep), sum(energies), max(energies)) == (exact.size, exact.q_sum, exact.q_max)
    rep = codebook.report(cut, left, lattice, p_lim, target)
    assert (rep.size, rep.p_max, rep.p_ave) == (exact.size, exact.p_max, exact.p_ave)
    assert rep.s_value == pytest.approx(exact.s_value, rel=1e-12)


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
    # move a bit, nor where a block splits a run of a walker's group,
    # nor how many nodes the walker groups. Groups of 1 and 3 nodes per
    # level cut the walk into groups of a few runs, and the default
    # into a few large ones; the blocks split runs in each. The
    # uncapped sums at m = 2, 3, 4 take 62, 171 and 364 rest vectors below
    # zero, a whole number of blocks for some sizes here and not for
    # others. At m = 8, p_lim 4, lambda3 keeps 79 of the 17^4 words, and
    # most walked runs are cut to nothing. The skewed generator is
    # scanned in pieces of the block size; its lex-first zero coordinate
    # is at (-9, 0), the first row of the box's lower half.
    g1, g2, g3 = lambda1.generator, lambda2.generator, lambda3.generator
    skew = np.array([[1.0, 0.0], [-2.0, 1.0]])

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
    for group in (numfields._GROUP, 1, 3):
        monkeypatch.setattr(numfields, "_GROUP", group)
        assert outcomes() == want, group


def test_overflowing_energy_raises_before_any_term():
    # Norms near 1e308 overflow the energy sum, which is rounded, and
    # raises, before S; the terms, taken in the same pass, overflow their
    # coordinate products quietly (a warning here would be an error).
    for m in (3, 40):
        with pytest.raises(OverflowError):
            inverse_norm_power_sum(np.array([[1.0, 0.5], [0.25, -1.0]]) * 1e154, m)


def _top_of_range(log_k: float, form: bool):
    """A generator of dimension 9 whose largest terms on the m = 1 box
    are near K = 10^log_k, as a plain array or, with form, carrying the
    identity form, which keys its words by |z|^2 and walks them; the
    entries alone make the terms. The rows are c (r, a, R_2, ..., R_8),
    c = K^(-1/27): the coordinates of r, a and r - a have the products 1,
    1.1 and 0.084375, and each R_i is 10^i times seeded values in [1, 2],
    which puts every other word's product above 1000. So the terms of
    +-(r - a), +-r and +-a are 1665 K, K and K / 1.331, every other term
    is below K / 1e9, and every coordinate of every nonzero word is at
    least 0.5 c, above DIVERSITY_EPS for every log_k up to 315. No
    generator of dimension 8 or less reaches the top of the range: with
    every coordinate at DIVERSITY_EPS or more, each term is at most 1e288."""
    r = [1, 1, 1, 1, 1, 1, 1, 0.5, 2]
    a = [2, 0.5, 2, 0.5, 2, 0.5, 0.5, 2, 1.1]
    R = np.random.default_rng(7).uniform(1, 2, (7, 9)) * 10.0 ** np.arange(2, 9)[:, None]
    entries = np.vstack([r, a, R]) * 10.0 ** (-log_k / 27)
    return GeneratorMatrix(entries, tuple(map(tuple, np.eye(9, dtype=int).tolist()))) \
        if form else entries


def test_an_infinite_term_outweighs_finite_terms_that_overflow():
    # At K = 1e308 the terms of +-(r - a) overflow to inf, and those of
    # +-r and +-a, 1e308 and 7.5e307, are past the largest double
    # together. Every term is positive, so S is inf, whatever the order
    # of the terms, and not an OverflowError from the finite ones: on a
    # plain array's scan, on the whole box and on a walk, and with the
    # infinite term among a carve's ties (with the identity form, the
    # carve to 100 keeps 81 of the 144 words keyed 2, (-1, 1, 0, ...) the
    # 16th of them).
    for form in (False, True):
        gen = _top_of_range(308, form)
        assert inverse_norm_power_sum(gen, 1).s_value == math.inf
        assert inverse_norm_power_sum(gen, 1, 2.0).s_value == math.inf
        assert carve_lowest_energy(gen, 1, 100).s_value == math.inf


def test_finite_terms_past_the_largest_double_raise():
    # At K = 10^304.9 the terms of +-(r - a), 1.32e308 each, are finite
    # and past the largest double together: the exact sum raises
    # OverflowError, on a plain array's scan, on the whole box, on a walk
    # and on a walked carve.
    for form in (False, True):
        gen = _top_of_range(304.9, form)
        for f, args in ((inverse_norm_power_sum, (gen, 1)),
                        (inverse_norm_power_sum, (gen, 1, 2.0)),
                        (carve_lowest_energy, (gen, 1, 200))):
            with pytest.raises(OverflowError):
                f(*args)


def test_terms_of_2_997_and_more_are_summed_exactly():
    # At K = 1e301 the terms of +-(r - a), 1.7e304, are set aside from the
    # exact sum's bins, and S is still the exact sum of every term,
    # rounded once: on a plain array's scan, on the whole box, on a walk
    # and on a carve's ties.
    for form in (False, True):
        gen = _top_of_range(301, form)
        for m, p_lim, target in ((1, math.inf, None), (1, 2.0, None), (1, math.inf, 100)):
            rep = (inverse_norm_power_sum(gen, m, p_lim) if target is None
                   else carve_lowest_energy(gen, m, target))
            assert rep.s_value > 1e304
            assert (rep.size, rep.p_max, rep.p_ave, rep.s_value) == \
                _unfolded_sum(gen, m, p_lim, target), (form, p_lim, target)


def test_each_report_reads_its_codebook_once(lambda3, monkeypatch):
    # A report streams its half of the codebook once, the whole box's
    # blocks, the walked ones or a plain array's scan, its norms and terms
    # in the same pass: also where S is inf or the finite terms overflow
    # (_top_of_range at K = 1e308 and 10^304.9), where the energy does (a
    # plain generator scaled by 1e154), and in a carve.
    streams = []
    for codebook, name in ((constellation._Words, "_box_blocks"),
                           (constellation._Codebook, "_walked")):
        monkeypatch.setattr(codebook, name, lambda self, *args, name=name, read=getattr(
            codebook, name): streams.append(name) or read(self, *args))
    big = np.array([[1.0, 0.5], [0.25, -1.0]]) * 1e154
    inf, over, g3 = _top_of_range(308, True), _top_of_range(304.9, True), lambda3.generator
    box, walk = ["_box_blocks"], ["_walked"]
    for f, args, raises, read in (
            (inverse_norm_power_sum, (inf, 1), None, box),
            (inverse_norm_power_sum, (inf, 1, 2.0), None, walk),
            (inverse_norm_power_sum, (over, 1), OverflowError, box),
            (inverse_norm_power_sum, (over, 1, 2.0), OverflowError, walk),
            (inverse_norm_power_sum, (big, 3), OverflowError, box),
            (inverse_norm_power_sum, (big, 3, 1.7e308), OverflowError, box),
            (carve_lowest_energy, (g3, 3, 300), None, walk),
            (carve_lowest_energy, (inf, 1, 100), None, walk)):
        streams.clear()
        if raises is None:
            assert f(*args).s_value > 0
        else:
            with pytest.raises(raises):
                f(*args)
        assert streams == read, (f, args)


def test_slice_memory_does_not_grow_with_the_slice(lambda1):
    # A codebook streams through the fixed scratch made with its
    # _Codebook: an uncapped sum allocates no array that grows with the
    # box, its first report included. So the peak of a report at m = 25
    # (132651 rest rows) is less than twice that at m = 10 (9261), and
    # below the scratch's buffers other than its rest sums (0.6 MB).
    peaks = {}
    for m in (10, 25):
        codebook = constellation._Codebook(lambda1.generator, m)
        cut = codebook.cap(math.inf)
        scratch = sum(a.nbytes for a in vars(codebook.scratch).values())
        scratch -= codebook.scratch.rest.nbytes
        tracemalloc.start()
        try:
            codebook.report(cut, None, "")
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < scratch
    assert peaks[25] < 2 * peaks[10]


def test_whole_box_state_is_one_block_of_rest_sums(lambda1):
    # An uncapped sum takes the rest sums of the rest vectors below zero
    # block by block, each block once, into the scratch, from a piece of
    # _BLOCK coefficient rows that it drops at once. So the first uncapped
    # report of lambda1 at m = 25 peaks at about one piece, its row
    # indices and digits (_BLOCK (n + 1) float64s, 320 KB), and a small
    # margin: 0.41 MB here, with no rest sums of half the rest box (2.12
    # MB), which took its peak to 2.52 MB.
    m, n = 25, 4
    codebook = constellation._Codebook(lambda1.generator, m)
    cut = codebook.cap(math.inf)
    tracemalloc.start()
    try:
        codebook.report(cut, None, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert peak < constellation._BLOCK * (n + 1) * 8 + 2 ** 17, peak


def test_capped_sum_memory_does_not_grow_with_the_ball(lambda3):
    # The walk streams groups of at most numfields._GROUP nodes per level
    # and one run more, and each group's words go in blocks of _BLOCK
    # rows, so a capped sum allocates no array that grows with its ball. The lambda3 m = 40 sum at p_lim 1600 keeps
    # 3259369 words; its tracemalloc peak is 1.54 MB here (1.52 MB at
    # m = 20, p_lim 400), against
    # 3.37 MB for the slice-by-slice walk it replaced, and an unstreamed
    # rest-major walk of the whole ball reached 9.5 MB.
    tracemalloc.start()
    try:
        rep = inverse_norm_power_sum(lambda3.generator, 40, p_lim=1600.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.size == 3259369
    assert peak < 3.2e6, peak


def test_walk_chunks_keep_capped_peaks_near_one_block(lambda3):
    # Each group of the walk, about a thousand rest vectors, takes its
    # runs' cut and rest sums at once, and its words in blocks of _BLOCK
    # rows, in the scratch; so its arrays per rest vector are all it adds
    # to a walk in chunks of _BLOCK words. The tracemalloc peaks of a
    # second call, with the walker built, were 1.58 MB for the lambda3
    # m = 25 carve to 100000 and 1.57 MB for the m = 40 sum at p_lim 1600
    # with chunks of _BLOCK words; 1.47 and 1.46 MB here, and 1.73 and
    # 1.58 MB when the groups were re-cut into chunks of 32768 words. A
    # carve whose histogram takes a group's words at once peaks at 2.3 MB.
    gen = lambda3.generator
    for bound, f in ((1.58, lambda: carve_lowest_energy(gen, 25, 100000)),
                     (1.57, lambda: inverse_norm_power_sum(gen, 40, p_lim=1600.0))):
        f()
        tracemalloc.start()
        try:
            f()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (bound + 0.25) * 2 ** 20, (bound, peak)


def test_scan_cut_holds_half_the_box_norms_once(lambda3):
    # A plain array's carve reads the norms of the whole box's half into
    # one array, 8 bytes a norm, for its cut. At m = 20 those are 10.8
    # MiB; the cut's tracemalloc peak is 12.1 MiB here, and was 21.6 MiB
    # when it joined a list of per-block norm arrays.
    m = 20
    half = (41 ** 4 - 1) // 2
    codebook = constellation._Scan(constellation._as_generator(lambda3.generator.entries), m)
    tracemalloc.start()
    try:
        codebook.cut(2 * m ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * half + 3e6, peak


def test_carve_radius_of_a_huge_generator_does_not_overflow():
    # The determinant of this generator is 1.125e308, so target * covolume
    # once overflowed with a RuntimeWarning, an error here. Its scan's
    # cuts count the words other than zero: the smallest pair is keyed
    # 1.0625e308 and the next 1.25e308, and the energy of two words keyed
    # 1.0625e308 overflows the float range.
    big = np.array([[1.0, 0.5], [0.25, -1.0]]) * 1e154
    want = [(-math.inf, None), (1.0625e308, 1), (1.0625e308, None), (1.25e308, 1),
            (1.25e308, None)]
    for m in (1, 2, 3):
        codebook = constellation._Scan(constellation._as_generator(big), m)
        assert [codebook.cut(target) for target in range(1, 6)] == want, m
        assert carve_lowest_energy(big, m, 2).p_max == 1.0625e308
        with pytest.raises(OverflowError):
            carve_lowest_energy(big, m, 5)


def test_carve_of_an_overflowing_corner_matches_a_box_scan():
    # The float norms of this generator's box overflow at its corners.
    # Each cut is a scan's of the box's float norms by the word formula,
    # the zero word apart, and each carve returns or overflows its energy.
    big = np.array([[1.0, 0.5], [0.25, -1.0]]) * 1e154
    for m in (1, 2, 3):
        with np.errstate(over="ignore"):
            keys = _column_formula(_box(2, m), big)[1]
        keys = np.sort(np.delete(keys, len(keys) // 2))
        codebook = constellation._Scan(constellation._as_generator(big), m)
        for target in range(1, len(keys) + 2):
            if target == 1:
                want = -math.inf, None
            else:
                cut = keys[target - 2]
                left = target - 1 - int(np.count_nonzero(keys < cut))
                want = float(cut), None if left == np.count_nonzero(keys == cut) else left
            assert codebook.cut(target) == want, (m, target)
            try:
                assert carve_lowest_energy(big, m, target).size == target
            except OverflowError:
                pass


def test_capped_sums_build_no_rest_box(lambda3, monkeypatch):
    # Uncapped, or with a ball that holds the box, a sum takes the rest
    # sums of the rest vectors of {-m..m}^3 below zero, 171 of its 343,
    # and of the zero one, from pieces of at most _BLOCK coefficient rows,
    # and allocates no array of more than _BLOCK rows; capped, the sum
    # walks its ball, and no box is built.
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
    shapes.clear()
    for p_lim in (math.inf, 1e6):
        inverse_norm_power_sum(gen, 3, p_lim=p_lim)
    pieces = [(3, 3, 0, 100), (3, 3, 100, 171), (3, 3, 171, 172)]
    assert boxes == 2 * pieces
    assert (71, 3) in shapes and all(
        max(s if isinstance(s, tuple) else (s,)) <= 100 for s in shapes), shapes


def test_integer_arguments_of_any_integer_type_but_bool(lambda3):
    # numpy integers are integers; a bool is not a box bound or a count.
    gen = lambda3.generator
    rep = inverse_norm_power_sum(gen, np.int64(3))
    assert rep == inverse_norm_power_sum(gen, 3) and type(rep.m) is int
    rep = carve_lowest_energy(gen, np.int64(3), np.int64(10))
    assert rep == carve_lowest_energy(gen, 3, 10)
    assert type(rep.m) is int and type(rep.target_size) is int
    for kwargs in ({"m": True}, {"m": 2.0},
                   {"m": np.int64(0)}):
        with pytest.raises(DomainError):
            inverse_norm_power_sum(gen, **kwargs)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, True)


def test_lattice_name_is_keyword_only(lambda3):
    # S is the cube sum, with no exponent to pass; a fourth positional
    # argument, as an exponent once was, is refused, not taken for the
    # lattice name.
    gen = lambda3.generator
    with pytest.raises(TypeError):
        inverse_norm_power_sum(gen, 2, math.inf, 3)
    with pytest.raises(TypeError):
        carve_lowest_energy(gen, 2, 10, 3)
    assert inverse_norm_power_sum(gen, 2, lattice_name="x").lattice_name == "x"
    assert carve_lowest_energy(gen, 2, 10, lattice_name="x").lattice_name == "x"


def test_capped_diversity_failure_names_the_lex_first_word():
    # With a cap the kernel visits only part of the box; the
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
    # A sum or a carve builds one _Codebook, and a generator builds its
    # walker once: later sums on it, and a failing one (a carve target
    # past the largest double), reuse it. A plain array is scanned, with
    # neither.
    built, walkers = [], []

    class Counted(constellation._Codebook):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    class CountedWalker(EllipsoidWalker):
        def __init__(self, *args):
            walkers.append(args)
            super().__init__(*args)

    monkeypatch.setattr(constellation, "_Codebook", Counted)
    monkeypatch.setattr(numfields, "EllipsoidWalker", CountedWalker)
    gen = GeneratorMatrix(lambda3.generator.entries, lambda3.generator.form)
    inverse_norm_power_sum(gen, 9, p_lim=64.0)
    carve_lowest_energy(gen, 6, 500)
    inverse_norm_power_sum(gen, 4)
    for _ in range(2):
        with pytest.raises(OverflowError):
            carve_lowest_energy(gen, 10 ** 200, 10 ** 400)
    assert len(built) == 5 and len(walkers) == 1
    eye = GeneratorMatrix(np.eye(2))
    for _ in range(2):
        with pytest.raises(DiversityError):
            inverse_norm_power_sum(eye, 1)
    assert len(built) == 5 and len(walkers) == 1


def test_diversity_failure_reported():
    # The lex-first offending word is (-1, 0) -> (-1, 0), in slice z1 = -1,
    # which the fold reads only as the negation of (1, 0).
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
    # Each lex-first offender of the first three cases has a rest vector
    # above zero and z1 < 0, which a rest-major fold reads only as the
    # negation of a word with its rest vector below zero and z1 > 0. The
    # last case's M M^T underflows to a singular matrix, which a walker of
    # M M^T refused, and its words (z1, 0) are normed 0.0, before the zero
    # word in (norm, lex) order. The sum, and the carves to 1 and to the
    # whole box, name the vector, coordinate and value of a brute-force
    # scan by the word formula, or return; the first case's value is a
    # rounding residue, not a zero.
    cases = (([[0.1, 1.0], [0.3, -0.7]], 3),
             ([[2.0, 1.0, -1.0], [-1.0, 2.0, -2.0], [0.0, 0.5, -2.0]], 3),
             ([[-2.0, -1.0, 0.5], [-2.0, 2.0, -1.0], [0.5, -2.0, 2.0]], 3),
             ([[1e-170, 0.0], [0.0, 1.0]], 3))
    values = []
    for i, (M, m) in enumerate(cases):
        n, side = len(M), 2 * m + 1
        scanned = sorted((_formula(z, M)[1], z)
                         for z in itertools.product(range(-m, m + 1), repeat=n))
        for target in (None, 1, side ** n):
            want = None
            for z in sorted(z for _, z in scanned[:target]):
                absx = [abs(v) for v in _formula(z, M)[0]]
                if any(z) and min(absx) < constellation.DIVERSITY_EPS:
                    want = z, absx.index(min(absx)), min(absx)
                    break
            if target is None:
                rest_row = sum((c + m) * side ** (n - 2 - k) for k, c in enumerate(want[0][1:]))
                assert i == 3 or want[0][0] < 0 and rest_row > side ** (n - 1) // 2
                f, args = inverse_norm_power_sum, (np.array(M), m)
            else:
                f, args = carve_lowest_energy, (np.array(M), m, target)
            if want is None:
                assert f(*args).size == target
                continue
            with pytest.raises(DiversityError) as err:
                f(*args)
            got = err.value.coeff_vector, err.value.coordinate_index, err.value.value
            assert got == want and type(got[2]) is float
            if target is None:
                values.append(got[2])
    assert values[0] > 0.0 == values[1] == values[2] < values[3]


def test_subnormal_norms_raise_no_warning():
    # At m = 2 the ball of 2 and the carve to 5 of this generator keep the
    # words (z1, 0), whose norms are subnormal; a walker of M M^T
    # overflowed dividing by its levels, with a RuntimeWarning. The scan
    # names the lex-first of them, with no warning.
    gen = np.array([[1e-160, 0.0], [0.0, 1e150]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, args in ((inverse_norm_power_sum, (gen, 2, 2.0)),
                        (carve_lowest_energy, (gen, 2, 5))):
            with pytest.raises(DiversityError) as err:
                f(*args)
            assert (err.value.coeff_vector, err.value.coordinate_index,
                    err.value.value) == ((-2, 0), 1, 0.0)


def test_diversity_scan_finds_the_first_offending_row():
    # _lex_first takes, of a block's rows with a coordinate below
    # DIVERSITY_EPS, the lex-first coefficient vector, of either sign
    # where the block stands for the negations too, or an earlier one.
    absx = np.full((7, 4), 0.5)
    z = np.arange(28).reshape(7, 4) - 14
    absx[5, 1] = 1e-13
    absx[2, 3] = 4e-13
    absx[2, 0] = 3e-13
    z[5], z[2] = (0, 1, -2, 0), (1, -1, 0, 0)
    assert _lex_first(None, absx, lambda rows: z[rows], False) == ((0, 1, -2, 0), 1, 1e-13)
    assert _lex_first(None, absx, lambda rows: z[rows], True) == ((-1, 1, 0, 0), 0, 3e-13)
    assert _lex_first(((-2, 0, 0, 0), 3, 0.0), absx, lambda rows: z[rows], True) == \
        ((-2, 0, 0, 0), 3, 0.0)


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
