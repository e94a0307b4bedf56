"""Exact certificates that catalogued secrecy polynomials are minimized
at z = 1/4, plus synthetic polynomials exercising every failure mode."""

import json
import time
from fractions import Fraction

import pytest

from latticesec.conjecture import verify_conjecture
from latticesec.errors import DomainError
from latticesec.zpoly import ZPolynomial, known_extremal_table


def test_all_catalogued_dimensions_hold_quickly():
    t0 = time.monotonic()
    for dim, poly in known_extremal_table():
        cert = verify_conjecture(poly)
        assert cert.holds, "dimension %d" % dim
        assert cert.min_location == Fraction(1, 4)
        assert cert.critical_points == ()
        assert cert.interior_q_roots == 0
        assert cert.q_at_zero > 0
    assert time.monotonic() - t0 < 5.0


def test_certificates_are_reproducible():
    poly = known_extremal_table()[9][1]
    a, b = verify_conjecture(poly), verify_conjecture(poly)
    assert a == b
    assert a.to_json(dimension=80) == b.to_json(dimension=80)


def test_json_document_shape():
    cert = verify_conjecture(known_extremal_table()[0][1])
    doc = json.loads(cert.to_json(dimension=8))
    assert doc == {
        "dimension": 8,
        "holds": True,
        "critical_intervals": [],
        "P_at_quarter": "3/4",
    }


def test_interior_minimum_is_detected():
    # 1 - 4z + 16z^2 dips below P(1/4) = 1 with its minimum exactly at 1/8.
    # Q = 16z(z - 1/4) vanishes only at the endpoints, so the failure is
    # caught by the critical-interval sign check, not the root count.
    cert = verify_conjecture(ZPolynomial((1, -4, 16)))
    assert not cert.holds
    assert cert.min_location == Fraction(1, 8)
    assert cert.interior_q_roots == 0


def test_interior_q_root_is_counted():
    # 1 - 6z + 16z^2: Q = 16(z - 1/8)(z - 1/4) crosses zero at 1/8,
    # strictly inside (0, 1/4); the minimum sits at P' = 0, z = 3/16.
    cert = verify_conjecture(ZPolynomial((1, -6, 16)))
    assert not cert.holds
    assert cert.min_location == Fraction(3, 16)
    assert cert.interior_q_roots == 1
    assert cert.q_at_zero == Fraction(1, 2)


def test_irrational_interior_minimum_yields_tight_interval():
    # P' = -1 + 24z^2 vanishes at 1/sqrt(24), inside (0, 1/4).
    cert = verify_conjecture(ZPolynomial((1, -1, 0, 8)))
    assert not cert.holds
    lo, hi = cert.min_location
    assert 0 < lo < hi < Fraction(1, 4)
    assert hi - lo <= Fraction(1, 10**30)
    # the critical point really is 1/sqrt(24)
    target = Fraction(1, 24)
    assert lo * lo <= target <= hi * hi


def test_double_interior_q_root_is_counted():
    # P = (8z - 1)^2 (1 - 4z): Q = P touches P(1/4) = 0 at z = 1/8, a
    # double root of Q inside (0, 1/4), and stays positive elsewhere.
    cert = verify_conjecture(ZPolynomial((1, -20, 128, -256)))
    assert not cert.holds
    assert cert.interior_q_roots == 1
    assert cert.q_at_zero == 1
    assert cert.min_location == Fraction(1, 8)


def test_touching_interior_q_root_names_its_critical_interval():
    # P = (10z - 1)^2 (1 - 4z): Q = P touches zero at 1/10, where bisection
    # does not land exactly, so Q is positive at both ends of the refined
    # critical interval; that interval, not z = 0 (Q(0) = 1), is the
    # competitor.
    cert = verify_conjecture(ZPolynomial((1, -24, 180, -400)))
    assert not cert.holds
    assert cert.interior_q_roots == 1
    assert cert.q_at_zero == 1
    lo, hi = cert.min_location
    assert lo <= Fraction(1, 10) <= hi
    assert hi - lo <= Fraction(1, 10**30)


def test_double_critical_point_is_refined():
    # P = -(10z - 1)^3 decreases on [0, 1/4] and P' = -30 (10z - 1)^2
    # has a double root at 1/10, where P' keeps its sign: bisection of P'
    # itself would find no sign change to follow.
    cert = verify_conjecture(ZPolynomial((1, -30, 300, -1000)))
    assert cert.holds
    (lo, hi), = cert.critical_points
    assert lo <= Fraction(1, 10) <= hi
    assert hi - lo <= Fraction(1, 10**30)


def test_boundary_tie_fails_certification():
    # P(0) = P(1/4) = 1 with P > 1 in between: minimum is not unique to 1/4.
    cert = verify_conjecture(ZPolynomial((1, 1, -4)))
    assert not cert.holds
    assert cert.q_at_zero == 0
    assert cert.interior_q_roots == 0
    assert cert.min_location == 0


def test_strictly_increasing_polynomial_holds_nowhere():
    # P = 1 + z has its minimum at z = 0, not 1/4.
    cert = verify_conjecture(ZPolynomial((1, 1)))
    assert not cert.holds
    assert cert.min_location == 0


def test_constant_polynomial_rejected():
    with pytest.raises(DomainError):
        verify_conjecture(ZPolynomial((Fraction(1),)))
