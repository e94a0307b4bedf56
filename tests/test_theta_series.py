"""Exact vector counts by squared norm, cross-checked against divisor
sums, brute force, and the analytic theta functions."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latticesec.errors import DomainError
from latticesec.theta import theta_triple
from latticesec import theta_series
from latticesec.theta_series import E8_GRAM, theta_series_oracle


def _identity_gram(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _sigma3(k: int) -> int:
    return sum(d**3 for d in range(1, k + 1) if k % d == 0)


def test_e8_low_coefficients():
    counts = dict(theta_series_oracle(E8_GRAM, 6))
    assert counts == {0: 1, 2: 240, 4: 2160, 6: 6720}


def test_e8_matches_divisor_sums():
    # N(2k) = 240 * sigma_3(k) for the root lattice of rank 8
    counts = dict(theta_series_oracle(E8_GRAM, 16))
    assert counts[0] == 1
    for k in range(1, 9):
        assert counts[2 * k] == 240 * _sigma3(k)
    assert all(norm % 2 == 0 for norm in counts)


def test_e8_walk_streams_in_small_chunks():
    # The walker streams its candidates in groups of at most about a
    # thousand prefixes, so the oracle holds no array of the whole ball.
    # Its tracemalloc peak to norm 10 (56881 vectors) is 0.86 MB here,
    # 1.25 MB when each candidate's norm was taken as z G z^T, 1.41 MB
    # when the groups were re-cut into chunks of 2048 candidates; walking
    # a leading coefficient's slice at a time, it was 2.0-2.2 MB.
    tracemalloc.start()
    try:
        counts = theta_series_oracle(E8_GRAM, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c for _, c in counts) == 56881
    assert peak < 1.7e6, peak


def test_z4_counts_against_brute_force():
    got = dict(theta_series_oracle(_identity_gram(4), 8))
    box = np.arange(-3, 4)
    grids = np.meshgrid(*([box] * 4), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.einsum("ij,ij->i", z, z)
    want = {}
    for q in range(0, 9):
        want[q] = int(np.count_nonzero(norms == q))
    want = {q: c for q, c in want.items() if c}
    assert got == want


def test_z1_value_matches_theta3():
    counts = theta_series_oracle(_identity_gram(1), 144)
    for y in (0.5, 1.0, 2.0):
        val = math.fsum(c * math.exp(-math.pi * y * r) for r, c in counts)
        assert val == pytest.approx(theta_triple(y).theta3, rel=1e-12)


def test_e8_value_matches_modular_form():
    # Theta_E8 = (theta2^8 + theta3^8 + theta4^8) / 2
    counts = theta_series_oracle(E8_GRAM, 16)
    for y in (0.5, 1.0, 2.0, 4.0):
        trip = theta_triple(y)
        closed = (trip.theta2**8 + trip.theta3**8 + trip.theta4**8) / 2.0
        val = math.fsum(c * math.exp(-math.pi * y * r) for r, c in counts)
        assert val == pytest.approx(closed, rel=1e-6)


def test_rational_gram_scaled_norms():
    half = Fraction(1, 2)
    counts = theta_series_oracle([[half, 0], [0, half]], 2)
    assert counts == [(0, 1), (half, 4), (1, 4), (2, 4)]


def test_norms_past_int64_stay_exact():
    # Norms and the products that make them exceed 2^63 here, so int64
    # arithmetic would wrap; the counts must still be exact.
    assert theta_series_oracle([[2**62]], 2**64) == [
        (0, 1), (2**62, 2), (2**64, 2)]
    hexagonal = [[2**62, 2**61], [2**61, 2**62]]
    assert theta_series_oracle(hexagonal, 3 * 2**62) == [
        (0, 1), (2**62, 6), (3 * 2**62, 6)]
    # These have no common factor to divide out, so they walk in Python ints.
    assert theta_series_oracle([[2**62 + 1]], 2**64) == [(0, 1), (2**62 + 1, 2)]
    skewed = [[2**62 + 1, 2**61], [2**61, 2**62 + 1]]
    assert theta_series_oracle(skewed, 3 * 2**62) == [
        (0, 1), (2**62 + 1, 4), (2**62 + 2, 2)]


def test_a_common_factor_is_walked_out(monkeypatch):
    # E8 scaled by 2^40 walks as E8 itself, in int64, and reports its
    # norms scaled back; undivided, it would walk in Python ints.
    dtypes = set()

    class Walker(theta_series.EllipsoidWalker):
        def nodes(self, cap, m=None):
            for group in super().nodes(cap, m):
                dtypes.add(group[3].dtype)
                yield group

    monkeypatch.setattr(theta_series, "EllipsoidWalker", Walker)
    s = 2**40
    scaled = [[s * x for x in row] for row in E8_GRAM]
    assert theta_series_oracle(scaled, 16 * s) == [
        (s * q, c) for q, c in theta_series_oracle(E8_GRAM, 16)]
    assert dtypes == {np.dtype(np.int64)}
    half = Fraction(1, 2)
    assert theta_series_oracle([[3 * half, 0], [0, 3]], 7) == [
        (0, 1), (3 * half, 2), (3, 2), (9 * half, 4), (6, 2)]


def test_a_cap_past_int64_coordinates_is_a_domain_error():
    # Such a ball has over 2^63 vectors on one axis; no walk can finish.
    with pytest.raises(DomainError, match="int64"):
        theta_series_oracle([[1]], 2**130)
    with pytest.raises(DomainError, match="int64"):
        theta_series_oracle([[2, 1], [1, 2]], 2**140)


def test_huge_exact_grams_walk_without_floats():
    # Both pass the exact positive-definiteness check, and their entries
    # are past the float range, so no float may hold a walk's value.
    assert theta_series_oracle([[10**400]], 4) == [(0, 1)]
    assert theta_series_oracle([[2, 1], [1, 10**320]], 4) == [(0, 1), (2, 2)]


def test_gram_validation():
    with pytest.raises(DomainError):
        theta_series_oracle([[1, 0]], 2)
    with pytest.raises(DomainError):
        theta_series_oracle([[1, 1], [0, 1]], 2)
    with pytest.raises(DomainError):
        theta_series_oracle([[1, 2], [2, 1]], 2)
    with pytest.raises(DomainError):
        theta_series_oracle(_identity_gram(2), 0)
    with pytest.raises(DomainError):
        theta_series_oracle(_identity_gram(2), True)
    assert theta_series_oracle(_identity_gram(2), np.int64(2)) == \
        theta_series_oracle(_identity_gram(2), 2)


def test_value_at_zero_norm_only():
    # Below norm 2 only the zero vector counts; up to 2, E8's 240 roots.
    for cap, want in ((1, 1.0), (2, 1.0 + 240.0 * math.exp(-2 * math.pi * 10.0))):
        counts = theta_series_oracle(E8_GRAM, cap)
        val = math.fsum(c * math.exp(-math.pi * 10.0 * r) for r, c in counts)
        assert val == pytest.approx(want, rel=1e-15)
