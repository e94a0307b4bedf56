"""Jacobi theta functions at purely imaginary arguments.

For an argument tau = y*i with y > 0 the nome is g = exp(-pi*y) and the
three classical theta values reduce to real q-series:

    theta2(yi) = 2 * sum_{n>=0} g^((n+1/2)^2)
    theta3(yi) = 1 + 2 * sum_{n>=1} g^(n^2)
    theta4(yi) = 1 + 2 * sum_{n>=1} (-1)^n g^(n^2)

The derived quantity

    z(y) = theta2^4 * theta4^4 / theta3^8

lives in [0, 1/4], is symmetric under y -> 1/y, and attains its maximum
1/4 exactly at y = 1. Secrecy functions of unimodular lattices are
reciprocals of polynomials in z, so this module is the numerical
foundation for everything downstream.

Evaluation uses the sum representations with an explicit geometric tail
bound: summation stops once the bound on the dropped tail falls below
the requested tolerance. Terms are accumulated with math.fsum, so the
returned value carries the truncation error plus at most a few ulps.
For y < 1 the series are summed at 1/y, where they converge fast and
theta4 does not cancel, and mapped back through the modular relations

    theta2(yi) = theta4(i/y)/sqrt(y),  theta3(yi) = theta3(i/y)/sqrt(y),
    theta4(yi) = theta2(i/y)/sqrt(y),

with the tolerance at 1/y scaled by sqrt(y), so that the absolute
truncation bound tol still holds at y.

The supported domain is y in [1e-3, 1e3]. Outside it the closed-form
asymptotic limits are returned and the triple is flagged `asymptotic`
(for y below the domain the modular relations give theta2, theta3 ~
1/sqrt(y) and theta4 ~ 2*exp(-pi/(4y))/sqrt(y); for y above it all
series collapse to their first terms). Values that underflow double
precision are reported as 0.0; the relative-error contract of eval_z
holds whenever the true value is representable.
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


def _theta34_sum(g: float, tol: float, alternating: bool) -> float:
    # Tail after term n is bounded by 2*g^((n+1)^2)/(1 - g^(2n+3)).
    terms = [1.0]
    n = 1
    while True:
        t = g ** (n * n)
        terms.append(-2.0 * t if (alternating and n % 2) else 2.0 * t)
        tail = 2.0 * g ** ((n + 1) ** 2) / (1.0 - g ** (2 * n + 3))
        if tail <= 0.5 * tol:
            return math.fsum(terms)
        n += 1


def _theta2_sum(g: float, tol: float) -> float:
    # Tail after term n is bounded by 2*g^((n+3/2)^2)/(1 - g^(2n+4)).
    terms = []
    n = 0
    while True:
        terms.append(2.0 * g ** ((n + 0.5) ** 2))
        tail = 2.0 * g ** ((n + 1.5) ** 2) / (1.0 - g ** (2 * n + 4))
        if tail <= 0.5 * tol:
            return math.fsum(terms)
        n += 1


@dataclass(frozen=True)
class ThetaTriple:
    """theta2, theta3, theta4 at tau = y*i with truncation bound tol.

    `asymptotic` marks values produced by the closed-form limits outside
    the supported y-domain rather than by series summation.
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
        lhs = self.theta2 ** 4 + self.theta4 ** 4 - self.theta3 ** 4
        scale = max(self.theta2, self.theta3, self.theta4) ** 3
        if abs(lhs) > 8.0 * max(self.tol, 4e-16) * scale:
            raise InternalConsistencyError(
                "Jacobi identity violated at y=%g: residual %g" % (self.y, lhs))


def theta_triple(y: float, tol: float = DEFAULT_TOL) -> ThetaTriple:
    """Evaluate all three theta functions at tau = y*i.

    Absolute truncation error is at most tol per value inside the
    supported domain; outside it the asymptotic limits are returned with
    the `asymptotic` flag set.
    """
    _check_args(y, tol)
    if y > DOMAIN_MAX:
        t2 = 2.0 * math.exp(-math.pi * y / 4.0)
        return ThetaTriple(y, t2, 1.0, 1.0, tol, asymptotic=True)
    if y < DOMAIN_MIN:
        # Modular lift of the large-argument limits: theta3(yi) = theta3(i/y)/sqrt(y).
        root = 1.0 / math.sqrt(y)
        t4 = 2.0 * root * math.exp(-math.pi / (4.0 * y))
        return ThetaTriple(y, root, root, t4, tol, asymptotic=True)
    if y < 1.0:
        # The series converge slowly and theta4 cancels as the nome nears
        # 1; sum at 1/y instead and map back through the modular relations.
        root = math.sqrt(y)
        t2, t3, t4 = _theta_sums(1.0 / y, tol * root)
        return ThetaTriple(y, t4 / root, t3 / root, t2 / root, tol)
    return ThetaTriple(y, *_theta_sums(y, tol), tol)


def _theta_sums(y: float, tol: float) -> tuple[float, float, float]:
    g = math.exp(-math.pi * y)
    return (_theta2_sum(g, tol), _theta34_sum(g, tol, alternating=False),
            _theta34_sum(g, tol, alternating=True))


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
    if z < 0.0:
        z = 0.0
    return z
