"""The exact norm-form oracle behind the acceptance errata, checked
against exact field norms, exact determinants and the program's sums."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latticesec import ratpoly
from latticesec.constellation import TABLE1_ROWS, TABLE2_ROWS, table_sweep
from latticesec.numfields import _nf_norm
from norm_oracle import NORM_FORMS, det4, exact_codebook


def _leibniz_det(mat) -> int:
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(4) for j in range(i + 1, 4))
        total += (-1) ** inversions * math.prod(
            int(mat[i][perm[i]]) for i in range(4))
    return total


def test_det4_is_exact():
    rng = np.random.default_rng(7)
    mats = rng.integers(-3000, 3000, size=(40, 4, 4))
    assert det4(mats).tolist() == [_leibniz_det(a) for a in mats]
    with pytest.raises(OverflowError):
        det4(np.full((1, 4, 4), 2**20, dtype=np.int64))


@pytest.mark.parametrize("lattice, min_poly, basis", [
    ("lambda1", (1, 1, -3, -1, 1),
     ((0, 1, 0, 0), (1, -2, -1, 1), (1, 0, -1, 0), (1, 0, 0, 0))),
    ("lambda3", (1, 4, -4, -1, 1), np.eye(4, dtype=int)),
])
def test_norms_match_exact_field_norms(lattice, min_poly, basis):
    f = ratpoly.make_poly(min_poly)
    rng = random.Random(11)
    zs = np.array([[rng.randint(-6, 6) for _ in range(4)] for _ in range(25)])
    got = NORM_FORMS[lattice].norms(zs)
    want = [_nf_norm([Fraction(int(c)) for c in z @ np.asarray(basis)], f)
            for z in zs]
    assert [Fraction(int(n)) for n in got] == want


def test_energy_cap_is_exact():
    form = NORM_FORMS["lambda3"]
    for p in (4, 16, 100, 400):
        cap = form.energy_cap(p)
        assert cap**4 <= 1125 * p**4 < (cap + 1) ** 4
    assert NORM_FORMS["lambda1"].energy_cap(25) == 25
    with pytest.raises(ValueError):
        form.energy_cap(2.5)


def test_oracle_matches_program_on_small_rows(lambda1, lambda2, lambda3):
    cases = [(lambda1, TABLE1_ROWS[:3]), (lambda2, TABLE1_ROWS[:3]),
             (lambda3, [r for r in TABLE2_ROWS if r.m <= 8])]
    for spec, rows in cases:
        for row, rep in zip(rows, table_sweep([(spec, rows)])):
            exact = exact_codebook(spec.name, row.m, row.p_lim, row.target_size)
            assert exact.size == rep.size
            for field in ("s_value", "p_max", "p_ave"):
                assert getattr(exact, field) == pytest.approx(
                    getattr(rep, field), rel=1e-12)
