"""Codebook enumeration and the inverse norm power sum: brute-force
oracles, frozen regressions, invariance properties, and determinism."""

import concurrent.futures
import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from latticesec import constellation
from latticesec.constellation import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    SumReport,
    TableRow,
    _ball_candidates,
    _first_violation,
    _product,
    _terms,
    carve_lowest_energy,
    inverse_norm_power_sum,
    reports_to_csv,
    table_sweep,
)
from latticesec.errors import DiversityError, DomainError
from latticesec.numfields import EllipsoidWalker, _box

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
    8: (79, 3.626028089755895, 2.6577758632568806, 1891949.6040485608),
    7: (2405, 35.56960888046257, 20.327726703592607, 7130240.828380058),
    12: (2401, 24.00085259409852, 15.241097660065165, 8572911.565456519),
    14: (50975, 195.97818485109235, 106.62799193311898, 17234509.75807331),
    20: (208411, 399.8990978987929, 217.31130845275564, 24071625.91483873),
}


def test_codebook_counts():
    eye = np.eye(4)
    assert len(_box(4, 1)) == 81
    assert inverse_norm_power_sum(eye, 1, p_lim=0.5).size == 1
    assert len(_box(4, 2)) == 625


def test_codebook_lex_order_and_zero():
    # The one coefficient box: lex order, zero in the middle row, and row
    # N-1-i the negation of row i, which the sum kernel's fold relies on.
    for k, m in ((1, 3), (2, 1), (3, 2), (4, 2)):
        box = _box(k, m)
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
    for spec in (lambda1, lambda2):
        for m in (1, 2, 3):
            rep = inverse_norm_power_sum(spec.generator, m)
            assert rep.size == (2 * m + 1) ** 4
            assert rep.p_max == pytest.approx(4.0 * m * m, rel=1e-12)
            assert rep.p_ave == pytest.approx(4.0 * m * (m + 1) / 3.0, rel=1e-12)


def test_p_ave_includes_the_zero_word(lambda2):
    rep = inverse_norm_power_sum(lambda2.generator, 1)
    # 80 nonzero words of mean energy 27/10 average to 8/3 over all 81
    assert rep.p_ave == pytest.approx(8.0 / 3.0, rel=1e-12)
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


def _unfolded_sum(M, m, p_lim, exponent=3):
    """(size, p_max, p_ave, S) from all 2m+1 slices, one matmul each."""
    n = M.shape[0]
    grids = np.meshgrid(*([np.arange(-m, m + 1)] * (n - 1)), indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)
    size, p_max, s_parts, energy_parts = 0, 0.0, [], []
    for z1 in range(-m, m + 1):
        block = z1 * M[0] + rest @ M[1:]
        norms = np.einsum("ij,ij->i", block, block)
        keep = norms <= p_lim
        nonzero = keep & (np.any(rest != 0, axis=1) | (z1 != 0))
        size += int(np.count_nonzero(keep))
        energy_parts.append(math.fsum(norms[keep]))
        if np.any(nonzero):
            terms = _inverse_power(np.prod(np.abs(block[nonzero]), axis=1), exponent)
            s_parts.append(math.fsum(terms))
            p_max = max(p_max, float(norms[nonzero].max()))
    return size, p_max, math.fsum(energy_parts) / size, math.fsum(s_parts)


def test_folded_kernel_matches_unfolded_bits(lambda1, lambda2, lambda3):
    # Only slices z1 >= 0 are computed; the mirrored fold must reproduce
    # the full computation bit for bit, capped or not.
    for spec in (lambda1, lambda2, lambda3):
        M = spec.generator.entries
        for m, p_lim, exponent in ((1, math.inf, 3), (4, math.inf, 3),
                                   (5, 16.0, 3), (7, 30.5, 2), (9, 64.0, 3)):
            rep = inverse_norm_power_sum(spec.generator, m, p_lim=p_lim,
                                         exponent=exponent)
            assert (rep.size, rep.p_max, rep.p_ave, rep.s_value) == \
                _unfolded_sum(M, m, p_lim, exponent)


def test_ball_walker_keeps_every_word_in_the_ball(lambda1, lambda2, lambda3):
    # The shipped lattices, a diagonal one and the exactly tied [[1, 3],
    # [3, -1]], whose words all have integer energies 10 (z1^2 + z2^2).
    # Both float norms the library tests against a cap count: the sum
    # kernel's z1*M[0] + rest @ M[1:] and the carve's z @ M.
    gens = [spec.generator.entries for spec in (lambda1, lambda2, lambda3)]
    for M in gens + [np.eye(2), np.array([[1.0, 3.0], [3.0, -1.0]])]:
        n = M.shape[0]
        for m in range(1, 10):
            side = 2 * m + 1
            rest = _box(n - 1, m)
            shared = rest @ M[1:]
            sliced = np.stack([np.einsum("ij,ij->i", z1 * M[0] + shared,
                                         z1 * M[0] + shared)
                               for z1 in range(-m, m + 1)])
            x = _box(n, m) @ M
            whole = np.einsum("ij,ij->i", x, x).reshape(side, -1)
            norms = np.minimum(sliced, whole)
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


def _direct_carve(M, m, target):
    """(size, p_max, p_ave, S) of a full-box (energy, lex) sort."""
    n = M.shape[0]
    z = _box(n, m)
    x = z @ M
    norms = np.einsum("ij,ij->i", x, x)
    sel = np.lexsort(tuple(z[:, j] for j in reversed(range(n))) + (norms,))
    sel = sel[:target]
    nonzero = np.any(z[sel] != 0, axis=1)
    terms = _inverse_power(np.prod(np.abs(x[sel][nonzero]), axis=1), 3)
    p_max = float(norms[sel][nonzero].max()) if nonzero.any() else 0.0
    return target, p_max, math.fsum(norms[sel]) / target, math.fsum(terms)


def test_carve_grows_its_ball_to_the_whole_box(lambda1, lambda2, lambda3):
    # Targets of the whole box and one word less make the carve's ball
    # grow until it holds the box; the middle ones cut a ball that the
    # box truncates.
    shipped = [spec.generator.entries for spec in (lambda1, lambda2, lambda3)]
    # The tied generator has a word with a zero coordinate from m = 3 on.
    tied = np.array([[1.0, 3.0], [3.0, -1.0]])
    for M, ms in [(M, (1, 2, 6)) for M in shipped] + [(tied, (1, 2))]:
        for m in ms:
            box = (2 * m + 1) ** M.shape[0]
            for target in (1, 7, box // 3, box - 1, box):
                rep = carve_lowest_energy(M, m, target)
                assert (rep.size, rep.p_max, rep.p_ave, rep.s_value) == \
                    _direct_carve(M, m, target), (M, m, target)


def test_column_product_matches_numpy_prod(lambda1, lambda2, lambda3):
    # The kernel multiplies the coordinates column by column; on the
    # shipped lattices that is bit for bit what np.prod(axis=1) gives.
    for spec in (lambda1, lambda2, lambda3):
        x = _box(4, 6) @ spec.generator.entries
        absx = np.abs(np.delete(x, len(x) // 2, axis=0))
        for exponent in (2, 3):
            assert np.array_equal(_terms(absx, exponent),
                                  _inverse_power(np.prod(absx, axis=1), exponent))


def test_blocked_product_matches_one_matmul(lambda1, lambda2, lambda3):
    # _product splits rows only, so each row must have the bits of one
    # np.matmul over the whole product, whichever threads computed that.
    for spec in (lambda1, lambda2, lambda3):
        M = spec.generator.entries
        for m in (30, 40):
            rest = _box(3, m)
            half = rest[len(rest) // 2:]
            out = np.empty((len(half), 4))
            assert _product(half, M[1:], out=out) is out
            assert np.array_equal(out.view(np.int64),
                                  np.matmul(half, M[1:]).view(np.int64))
    M = lambda3.generator.entries
    z, x, _ = _ball_candidates(M, 25, 100000)
    assert np.array_equal(x.view(np.int64), np.matmul(z, M).view(np.int64))


def test_products_stay_in_the_calling_thread(lambda3, monkeypatch):
    # OpenBLAS runs a gemm of up to 65536 * 4 multiply-adds in the calling
    # thread and hands a larger one to its pool, whose workers then spin.
    # Every matmul of a capped m=40 sum and of the m=25 carve stays within
    # half that, and the calls of each product tile its rows in order.
    calls, products = [], []
    matmul, product = np.matmul, constellation._product

    def recording_matmul(a, b, out=None):
        calls.append((a, b, out))
        return matmul(a, b, out=out)

    def recording_product(a, b, out=None):
        start = len(calls)
        out = product(a, b, out=out)
        products.append((a, b, out, calls[start:]))
        return out

    def offset(view, base):
        return (view.__array_interface__["data"][0]
                - base.__array_interface__["data"][0])

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(constellation, "_product", recording_product)
    inverse_norm_power_sum(lambda3.generator, 40, p_lim=1600.0)
    # A capped sum multiplies each slice's own candidates, never the half
    # rest box.
    assert len(products) == 41
    assert max(len(p[0]) for p in products) < (81 ** 3 + 1) // 2
    carve_lowest_energy(lambda3.generator, 25, 100000)
    assert len(products) >= 42
    assert sum(len(p[3]) for p in products) == len(calls)
    for a, b, out, own in products:
        row = 0
        for ai, bi, oi in own:
            assert bi is b
            if oi is None:  # a lone last row, taken twice
                assert row == len(a) - 1 and np.array_equal(ai, a[[row, row]])
                row += 1
                continue
            assert len(ai) == len(oi) > 1
            assert len(ai) * a.shape[1] * b.shape[1] <= 1 << 17
            assert offset(ai, a) == row * a.strides[0]
            assert offset(oi, out) == row * out.strides[0]
            row += len(ai)
        assert row == len(a)


def test_lone_rows_match_one_matmul(lambda1, lambda2, lambda3):
    # numpy takes a one-row matmul to gemv, which may round otherwise than
    # gemm; _product never makes such a call, so a lone row, alone or last
    # in a product, has the bits it has among others.
    rest = _box(3, 14)
    for spec in (lambda1, lambda2, lambda3):
        M = spec.generator.entries
        many = np.matmul(rest, M[1:]).view(np.int64)
        for i in range(0, len(rest), 211):
            assert np.array_equal(_product(rest[i:i + 1], M[1:]).view(np.int64),
                                  many[i:i + 1])
        step = constellation._PRODUCT_MADDS // 12
        for rows in (step + 1, 2 * step + 1):
            assert np.array_equal(_product(rest[:rows], M[1:]).view(np.int64),
                                  many[:rows])


def test_capped_sums_build_no_rest_box(lambda3, monkeypatch):
    # Uncapped, or with a ball that holds the box, a sum multiplies the
    # rest box {-m..m}^3 once; capped, each slice multiplies only the
    # walker's candidates, and no box is built.
    boxes = []

    def recording_box(k, m):
        boxes.append((k, m))
        return _box(k, m)

    monkeypatch.setattr(constellation, "_box", recording_box)
    gen = lambda3.generator
    inverse_norm_power_sum(gen, 9, p_lim=64.0)
    inverse_norm_power_sum(gen, 9, p_lim=64.0, jobs=2)
    assert boxes == []
    inverse_norm_power_sum(gen, 3)
    inverse_norm_power_sum(gen, 3, p_lim=1e6)
    assert boxes == [(3, 3), (3, 3)]


def test_integer_arguments_of_any_integer_type_but_bool(lambda3):
    # numpy integers are integers; a bool is not a box bound or a count.
    gen = lambda3.generator
    rep = inverse_norm_power_sum(gen, np.int64(3), exponent=np.int32(3),
                                 jobs=np.int64(2))
    assert rep == inverse_norm_power_sum(gen, 3) and type(rep.m) is int
    rep = carve_lowest_energy(gen, np.int64(3), np.int64(10))
    assert rep == carve_lowest_energy(gen, 3, 10)
    assert type(rep.m) is int and type(rep.target_size) is int
    for kwargs in ({"m": True}, {"m": 2, "exponent": True},
                   {"m": 2, "jobs": True}, {"m": 2.0}, {"m": np.int64(0)}):
        with pytest.raises(DomainError):
            inverse_norm_power_sum(gen, **kwargs)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, True)
    with pytest.raises(DomainError):
        table_sweep([(lambda3, [TableRow(2, 16.0)])], jobs=True)


def test_capped_diversity_failure_names_the_lex_first_word():
    # With a cap the kernel visits only some rows of each slice; the
    # offender must still map back to its own coefficient vector.
    for jobs in (1, 2):
        with pytest.raises(DiversityError) as err:
            inverse_norm_power_sum(np.eye(2), 2, p_lim=2.5, jobs=jobs)
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


def test_workers_are_bit_identical(lambda3):
    reports = [
        inverse_norm_power_sum(lambda3.generator, 9, p_lim=64.0, jobs=jobs,
                               lattice_name="lambda3")
        for jobs in (1, 2, 8)
    ]
    csvs = {reports_to_csv([r], full_precision=True) for r in reports}
    assert len(csvs) == 1
    assert reports[0] == reports[1] == reports[2]


def test_one_slice_block_per_sum(lambda3, monkeypatch):
    # Every thread shares one _Slices, and so does the rescan of a
    # mirrored diversity failure.
    built = []

    class Counted(constellation._Slices):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(constellation, "_Slices", Counted)
    for jobs in (1, 2, 8):
        built.clear()
        inverse_norm_power_sum(lambda3.generator, 9, p_lim=64.0, jobs=jobs)
        with pytest.raises(DiversityError):
            inverse_norm_power_sum(np.eye(2), 1, jobs=jobs)
        assert len(built) == 2


def test_threads_never_outnumber_the_cores_or_slices(lambda3, monkeypatch):
    # Recorded, never started: the stand-in maps every slice in this thread.
    made = []

    class Recorder:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    args = (lambda3.generator, 9)
    serial = inverse_norm_power_sum(*args, p_lim=64.0)
    for cores, jobs in ((2, 64), (None, 8), (8, 3), (16, 64)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert inverse_norm_power_sum(*args, p_lim=64.0, jobs=jobs) == serial
    # min(jobs, cores, m + 1); one core runs the slices without an executor.
    assert made == [2, 3, 10]


def test_diversity_failure_reported():
    # The lex-first offending word is (-1, 0) -> (-1, 0), in slice z1 = -1,
    # which the folded kernel only mirrors from slice z1 = 1.
    for jobs in (1, 2):
        with pytest.raises(DiversityError) as err:
            inverse_norm_power_sum(np.eye(2), 1, jobs=jobs)
        assert "coefficient vector" in str(err.value)
        assert err.value.coeff_vector == (-1, 0)
        assert err.value.coordinate_index == 1
        assert err.value.value == 0.0
    # The carve reports the first offender in (energy, lex) order.
    with pytest.raises(DiversityError) as err:
        carve_lowest_energy(np.eye(2), 1, 9)
    assert err.value.coeff_vector == (-1, 0)
    assert err.value.coordinate_index == 1


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


def test_argument_validation(lambda3):
    gen = lambda3.generator
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 0)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 1, p_lim=0.0)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 1, exponent=0)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 1, jobs=0)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(gen, 1, jobs=1.5)
    with pytest.raises(DomainError):
        table_sweep([(lambda3, [TableRow(2, target_size=10)])], jobs=0)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, 0)
    with pytest.raises(DomainError):
        carve_lowest_energy(gen, 1, 82)
    with pytest.raises(DomainError):
        inverse_norm_power_sum(np.zeros((2, 3)), 1)
    with pytest.raises(DomainError):
        table_sweep([(lambda3, [TableRow(3, p_lim=4.0, target_size=10)])])


def test_sum_report_guards():
    with pytest.raises(DomainError):
        SumReport("x", 2, 1, p_lim=4.0, size=5, p_max=9.0, p_ave=1.0,
                  s_value=1.0)
    with pytest.raises(DomainError):
        SumReport("x", 2, 1, p_lim=math.inf, size=5, p_max=1.0, p_ave=1.0,
                  s_value=0.0)


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
