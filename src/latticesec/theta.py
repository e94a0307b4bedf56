"""Jacobi theta functions at purely imaginary arguments.

For an argument tau = y*i with y > 0 the three classical theta values
are real series:

    theta2(yi) = 2 * sum_{n>=0} exp(-pi*y*(n+1/2)^2)
    theta3(yi) = 1 + 2 * sum_{n>=1} exp(-pi*y*n^2)
    theta4(yi) = 1 + 2 * sum_{n>=1} (-1)^n exp(-pi*y*n^2)

The derived quantity

    z(y) = theta2^4 * theta4^4 / theta3^8

lives in [0, 1/4], is symmetric under y -> 1/y, and attains its maximum
1/4 exactly at y = 1. Secrecy functions of unimodular lattices are
reciprocals of polynomials in z, so this module is the numerical
foundation for everything downstream.

One series, _series, evaluates all three values for every y > 0, with
an explicit geometric tail bound: summation stops once the bound on
the dropped tail falls below the requested tolerance. Each term is
taken from its own exponent, not as a power of the nome exp(-pi*y),
which is subnormal above y = 225.5 and would lose the digits of
theta2. Terms are accumulated with math.fsum, so the returned value
carries the truncation error plus at most a few ulps. For y < 1 the
series are summed at 1/y, where they converge fast and theta4 does
not cancel, and mapped back through the modular relations

    theta2(yi) = theta4(i/y)/sqrt(y),  theta3(yi) = theta3(i/y)/sqrt(y),
    theta4(yi) = theta2(i/y)/sqrt(y),

with the tolerance at 1/y scaled by sqrt(y), so that the absolute
truncation bound tol still holds at y.

Outside [DOMAIN_MIN, DOMAIN_MAX] = [1e-3, 1e3] the triple is flagged
`asymptotic`: there each series has collapsed to its leading term
(theta3 = theta4 = 1 above, theta2 = theta3 = 1/sqrt(y) below), and
theta2 above or theta4 below underflows to 0.0, as z does. Values
that underflow double precision are reported as 0.0; the
relative-error contract of eval_z holds whenever the true value is
representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError

DEFAULT_TOL = 1e-14
DOMAIN_MIN = 1e-3
DOMAIN_MAX = 1e3
Z_MAX = 0.25


def _check_args(y: float, tol: float) -> None:
    if not (y > 0):
        raise DomainError("theta argument requires y > 0, got %r" % (y,))
    if not (0 < tol < 1):
        raise DomainError("tolerance must lie in (0, 1), got %r" % (tol,))


def _series(y: float, tol: float, h: float, alternating: bool) -> float:
    """2 * sum_{n>=0} (-1)^(n if alternating) exp(-pi*y*(n+h)^2), with
    the n = 0 term 1 when h = 0: theta2 for h = 1/2, theta3 and theta4
    for h = 0. Each term is taken from its own exponent, so it keeps its
    digits until it underflows."""
    terms, n = ([], 0) if h else ([1.0], 1)
    while True:
        t = 2.0 * math.exp(-math.pi * y * (n + h) ** 2)
        terms.append(-t if alternating and n % 2 else t)
        # Each later term is at most exp(-pi*y*(2n+3+2h)) times the one
        # before it, so a geometric series bounds the tail after term n.
        tail = (2.0 * math.exp(-math.pi * y * (n + 1 + h) ** 2)
                / (1.0 - math.exp(-math.pi * y * (2 * n + 3 + 2 * h))))
        if tail <= 0.5 * tol:
            return math.fsum(terms)
        n += 1


@dataclass(frozen=True)
class ThetaTriple:
    """theta2, theta3, theta4 at tau = y*i with truncation bound tol.

    `asymptotic` marks y outside [DOMAIN_MIN, DOMAIN_MAX], where each
    series has collapsed to its leading term and theta2 (theta4 for
    small y) underflows to 0.0, as z does.
    """

    y: float
    theta2: float
    theta3: float
    theta4: float
    tol: float
    asymptotic: bool = False

    def __post_init__(self):
        if not (self.theta2 >= 0 and self.theta3 > 0 and self.theta4 >= 0):
            raise InternalConsistencyError(
                "theta values must be positive (up to underflow), got %r" % (self,))
        # theta2^4 + theta4^4 = theta3^4, divided by theta3^4 (the largest),
        # so that theta3 ~ 1/sqrt(y) cannot overflow at small y.
        lhs = ((self.theta2 / self.theta3) ** 4 + (self.theta4 / self.theta3) ** 4
               - 1.0)
        if abs(lhs) > 8.0 * max(self.tol, 4e-16) / self.theta3:
            raise InternalConsistencyError(
                "Jacobi identity violated at y=%g: residual %g" % (self.y, lhs))


def theta_triple(y: float, tol: float = DEFAULT_TOL) -> ThetaTriple:
    """Evaluate all three theta functions at tau = y*i.

    Absolute truncation error is at most tol per value, for every y > 0.
    """
    _check_args(y, tol)
    asymptotic = not DOMAIN_MIN <= y <= DOMAIN_MAX
    if y < 1.0:
        # The series converge slowly and theta4 cancels as the nome nears
        # 1; sum at 1/y instead and map back through the modular relations.
        root = math.sqrt(y)
        t2, t3, t4 = _theta_sums(1.0 / y, tol * root)
        return ThetaTriple(y, t4 / root, t3 / root, t2 / root, tol, asymptotic)
    return ThetaTriple(y, *_theta_sums(y, tol), tol, asymptotic)


def _theta_sums(y: float, tol: float) -> tuple[float, float, float]:
    return (_series(y, tol, 0.5, alternating=False),
            _series(y, tol, 0.0, alternating=False),
            _series(y, tol, 0.0, alternating=True))


def eval_z(y: float, tol: float = DEFAULT_TOL) -> float:
    """The z-variable theta2^4 theta4^4 / theta3^8 at tau = y*i.

    Returns a value in [0, 1/4] with relative error <= 100*tol whenever
    the true value is representable in double precision. An overshoot
    above 1/4 within 1000*tol is clamped; anything larger signals a bug
    in the theta evaluation itself and raises.
    """
    trip = theta_triple(y, tol)
    ratio = (trip.theta2 * trip.theta4) / (trip.theta3 * trip.theta3)
    z = ratio ** 4
    if z > Z_MAX + 1000.0 * tol:
        raise InternalConsistencyError(
            "z(%g) = %.17g exceeds 1/4 beyond tolerance" % (y, z))
    if z > Z_MAX:
        z = Z_MAX
    return z
