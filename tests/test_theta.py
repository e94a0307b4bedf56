"""Theta evaluation against closed forms, product expansions, and known
symmetries. The gamma-function and triple-product oracles are independent
of the q-series code under test."""

import math

import numpy as np
import pytest

from latticesec.cli import main
from latticesec.errors import DomainError, InternalConsistencyError
from latticesec.theta import (
    DEFAULT_TOL,
    DOMAIN_MAX,
    DOMAIN_MIN,
    ThetaTriple,
    eval_z,
    theta_triple,
)
from latticesec.zpoly import secrecy_function, table_polynomial

Y_GRID = np.geomspace(0.05, 20.0, 50)


def _product_oracle(y: float, terms: int = 60) -> tuple[float, float, float]:
    """Jacobi triple product forms; independent of the series code."""
    g = math.exp(-math.pi * y)
    t2, t3, t4 = 2.0 * g**0.25, 1.0, 1.0
    for n in range(1, terms + 1):
        common = 1.0 - g ** (2 * n)
        t2 *= common * (1.0 + g ** (2 * n)) ** 2
        t3 *= common * (1.0 + g ** (2 * n - 1)) ** 2
        t4 *= common * (1.0 - g ** (2 * n - 1)) ** 2
    return t2, t3, t4


def test_gamma_closed_form_at_one():
    # theta3(i) = pi^(1/4) / Gamma(3/4); theta2 = theta4 = theta3 / 2^(1/4)
    trip = theta_triple(1.0)
    t3_exact = math.pi**0.25 / math.gamma(0.75)
    assert trip.theta3 == pytest.approx(t3_exact, rel=1e-14)
    assert trip.theta2 == pytest.approx(t3_exact / 2**0.25, rel=1e-14)
    assert trip.theta4 == pytest.approx(t3_exact / 2**0.25, rel=1e-14)


@pytest.mark.parametrize("y", [0.3, 0.7, 1.0, 2.3, 5.0])
def test_triple_product_oracle(y):
    t2, t3, t4 = _product_oracle(y)
    trip = theta_triple(y)
    assert trip.theta2 == pytest.approx(t2, rel=1e-13)
    assert trip.theta3 == pytest.approx(t3, rel=1e-13)
    assert trip.theta4 == pytest.approx(t4, rel=1e-13)


def test_frozen_values():
    trip = theta_triple(1.0)
    assert trip.theta3 == pytest.approx(1.086434811213308, rel=1e-15)
    assert trip.theta2 == pytest.approx(0.9135791381561168, rel=1e-15)
    assert trip.theta4 == pytest.approx(0.9135791381561168, rel=1e-15)
    assert eval_z(50.0) == pytest.approx(9.667235325318504e-68, rel=1e-12)


@pytest.mark.parametrize("y", [0.0105, 0.05, 0.1])
def test_small_y_against_mpmath(y):
    # Near y = 0 the nome approaches 1 and theta4 ~ exp(-pi/(4y)) is left
    # after cancelling terms of order 1; the reference carries enough
    # digits to resolve it.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + int(math.pi / (4 * y * math.log(10)))):
        q = mpmath.exp(-mpmath.pi * mpmath.mpf(y))
        refs = [mpmath.jtheta(k, 0, q) for k in (2, 3, 4)]
        z_ref = refs[0] ** 4 * refs[2] ** 4 / refs[1] ** 8
        trip = theta_triple(y)
        for got, ref in zip((trip.theta2, trip.theta3, trip.theta4), refs):
            assert abs(got - ref) <= 1e-13 * ref
        assert abs(eval_z(y) - z_ref) <= 100 * DEFAULT_TOL * z_ref


def test_z_at_one_is_quarter():
    assert eval_z(1.0) == 0.25


def test_z_symmetry_on_grid():
    for y in Y_GRID:
        assert abs(eval_z(float(y)) - eval_z(1.0 / float(y))) <= 1e-10


def test_jacobi_identity_residual_on_grid():
    for y in Y_GRID:
        trip = theta_triple(float(y))
        residual = trip.theta2**4 + trip.theta4**4 - trip.theta3**4
        assert abs(residual) / trip.theta3**4 <= 1e-10


def test_z_range_and_monotone_tail():
    zs = [eval_z(float(y)) for y in Y_GRID]
    assert all(0.0 <= z <= 0.25 for z in zs)
    assert eval_z(1.0) > eval_z(2.0) > eval_z(5.0) > eval_z(20.0)


def test_domain_errors():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            theta_triple(bad)
    with pytest.raises(DomainError):
        theta_triple(1.0, tol=0.0)
    with pytest.raises(DomainError):
        theta_triple(1.0, tol=1.0)


def test_asymptotic_above_domain():
    trip = theta_triple(DOMAIN_MAX * 2)
    assert trip.asymptotic
    assert trip.theta3 == 1.0 and trip.theta4 == 1.0
    assert trip.theta2 == pytest.approx(2.0 * math.exp(-math.pi * 500.0), abs=1e-300)
    assert eval_z(DOMAIN_MAX * 2) == 0.0


def test_asymptotic_below_domain():
    y = DOMAIN_MIN / 2
    trip = theta_triple(y)
    assert trip.asymptotic
    root = 1.0 / math.sqrt(y)
    assert trip.theta2 == trip.theta3 == root
    assert trip.theta4 == pytest.approx(
        2.0 * root * math.exp(-math.pi / (4 * y)), rel=1e-15)


def test_asymptotic_matches_series_at_boundary():
    # On the domain's edges the flag is still off, and the series has
    # already collapsed to its leading terms.
    inside = theta_triple(DOMAIN_MAX)
    assert not inside.asymptotic
    assert inside.theta3 == pytest.approx(1.0, abs=1e-100)
    inside_low = theta_triple(DOMAIN_MIN)
    assert not inside_low.asymptotic
    assert inside_low.theta3 == pytest.approx(1.0 / math.sqrt(DOMAIN_MIN), rel=1e-12)


def test_loose_tolerance_still_close():
    assert eval_z(0.7, tol=1e-6) == pytest.approx(eval_z(0.7), abs=1e-5)


def test_triple_invariant_guard():
    with pytest.raises(InternalConsistencyError):
        ThetaTriple(y=1.0, theta2=1.0, theta3=1.0, theta4=1.0, tol=1e-14)


@pytest.mark.parametrize("y", [230.0, 236.0, 240.0, 500.0, 900.0])
def test_theta2_keeps_its_digits_where_the_nome_is_subnormal(y):
    # exp(-pi*y) is subnormal above y = 225.5; theta2 ~ 2*exp(-pi*y/4) is
    # still a normal float up to y = 900 and beyond.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.jtheta(2, 0, mpmath.exp(-mpmath.pi * mpmath.mpf(y)))
        assert ref > 1e-307
        assert abs(theta_triple(y).theta2 - ref) <= 1e-12 * ref
        # theta4(i/y) = sqrt(y) theta2(yi), which mpmath's jtheta(4) at
        # a nome near 1 would only give after cancelling its terms.
        ref4 = mpmath.sqrt(y) * ref
        assert abs(theta_triple(1.0 / y).theta4 - ref4) <= 1e-12 * ref4


@pytest.mark.parametrize("y", [1e-200, 5e-324])
def test_tiny_y_stays_finite(y, capsys):
    # theta2 = theta3 = 1/sqrt(y) there, whose fourth power overflows.
    trip = theta_triple(y)
    assert trip.asymptotic and trip.theta4 == 0.0
    assert trip.theta2 == trip.theta3 == pytest.approx(1.0 / math.sqrt(y), rel=1e-15)
    assert eval_z(y) == 0.0
    assert secrecy_function(table_polynomial(8), y) == 1.0
    assert main(["theta", "--y", repr(y)]) == 0
    out = capsys.readouterr().out
    assert "z = 0" in out.splitlines() and "regime = asymptotic" in out
