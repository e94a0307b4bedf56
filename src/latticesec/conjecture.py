"""Exact certification that P(z) is minimized on [0, 1/4] at z = 1/4.

The secrecy function 1/P(z(y)) peaks at y = 1 exactly when P attains
its minimum over [0, 1/4] at the right endpoint (z(1) = 1/4) and
nowhere else. This module decides that with pure rational arithmetic:

  * Q(z) = P(z) - P(1/4) vanishes at 1/4 by construction; the minimum
    is at 1/4 alone iff Q(0) > 0 and Q has no root in the open
    interval (0, 1/4). Root counting uses Sturm sequences, so the
    answer is a certificate, not a sample-based guess. The count is
    over the distinct roots of the unreduced Q, repeated ones included.
  * The roots of P' in (0, 1/4) are isolated and refined to rational
    intervals of width <= 1e-30; the sign of Q is certified on each,
    which documents the interior critical structure.

A minimum attained both at 1/4 and at an interior point counts as a
failure: the peak would not be unique.

No floating point is used anywhere; rerunning produces bit-identical
certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import ratpoly
from .errors import DomainError
from .zpoly import ZPolynomial

REFINE_WIDTH = Fraction(1, 10 ** 30)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class ConjectureCertificate:
    """Outcome of the exact minimization of P on [0, 1/4].

    critical_points are isolating intervals (lo, hi) of the roots of P'
    inside the open interval, refined below REFINE_WIDTH. min_location
    is the exact rational 1/4 when the property holds; otherwise the
    best competing location (a point or an isolating interval).
    """

    holds: bool
    critical_points: tuple[tuple[Fraction, Fraction], ...]
    min_location: Fraction | tuple[Fraction, Fraction]
    method: str
    p_at_quarter: Fraction
    q_at_zero: Fraction
    interior_q_roots: int

    def to_json_dict(self, dimension: int | None = None) -> dict:
        return {
            "dimension": dimension,
            "holds": self.holds,
            "critical_intervals": [
                [str(lo), str(hi)] for lo, hi in self.critical_points
            ],
            "P_at_quarter": str(self.p_at_quarter),
        }

    def to_json(self, dimension: int | None = None) -> str:
        return json.dumps(self.to_json_dict(dimension), sort_keys=True)


def _strip_root(p: ratpoly.Poly, at: Fraction) -> ratpoly.Poly:
    """Divide out (z - at) until p no longer vanishes at `at`."""
    factor = ratpoly.make_poly([-at, 1])
    while p and ratpoly.evaluate(p, at) == 0:
        p = ratpoly.divmod_poly(p, factor)[0]
    return p


def _isolated_critical_intervals(deriv: ratpoly.Poly):
    """Roots of P' strictly inside (0, 1/4), refined below REFINE_WIDTH."""
    core = _strip_root(_strip_root(deriv, Fraction(0)), _QUARTER)
    return ratpoly.roots_in(core, Fraction(0), _QUARTER, REFINE_WIDTH)


def verify_conjecture(poly: ZPolynomial) -> ConjectureCertificate:
    """Certify whether min_{[0,1/4]} P is attained at z = 1/4 only.

    Raises DomainError for constant polynomials (no minimization
    problem to decide).
    """
    p = poly.coeffs
    if ratpoly.degree(p) < 1:
        raise DomainError("conjecture verification needs a nonconstant polynomial")

    p_quarter = ratpoly.evaluate(p, _QUARTER)
    q = ratpoly.sub(p, ratpoly.make_poly([p_quarter]))
    q_zero = ratpoly.evaluate(q, Fraction(0))

    # Count distinct roots of the unreduced Q strictly inside (0, 1/4).
    # The root at 1/4 is divided out first; a root at 0 means Q(0) = 0,
    # handled by the sign test below.
    sq = _strip_root(_strip_root(q, _QUARTER), Fraction(0))
    interior = ratpoly.count_roots_open(sq, Fraction(0), _QUARTER)

    holds = q_zero > 0 and interior == 0
    criticals = _isolated_critical_intervals(ratpoly.derivative(p))

    trace = [
        "Q(z) = P(z) - P(1/4); P(1/4) = %s; Q(0) = %s" % (p_quarter, q_zero),
        "sturm root count of Q in (0, 1/4): %d" % interior,
        "P' has %d root(s) isolated in (0, 1/4) to width 1e-30" % len(criticals),
    ]

    # Certify the sign of Q on each critical interval by exact endpoint
    # evaluation; with no interior Q-roots the sign is constant across
    # the interval, so the endpoints decide it.
    candidates: list[tuple[Fraction, Fraction | tuple[Fraction, Fraction]]] = []
    for lo, hi in criticals:
        q_lo, q_hi = ratpoly.evaluate(q, lo), ratpoly.evaluate(q, hi)
        sign = "positive" if min(q_lo, q_hi) > 0 else (
            "negative" if max(q_lo, q_hi) < 0 else "mixed")
        trace.append("Q on critical interval (%s, %s): %s" % (lo, hi, sign))
        candidates.append((min(q_lo, q_hi), (lo, hi)))

    if holds:
        min_location: Fraction | tuple[Fraction, Fraction] = _QUARTER
        trace.append("minimum certified at z = 1/4 exclusively")
    else:
        # Q's least value on [0, 1/4] is at 0, at 1/4 (where Q = 0) or at
        # a critical point; name the candidate where Q is least.
        candidates.append((q_zero, Fraction(0)))
        min_location = min(candidates, key=lambda c: c[0])[1]
        if isinstance(min_location, tuple) and min_location[0] == min_location[1]:
            min_location = min_location[0]
        trace.append("minimum not exclusive to z = 1/4; competitor at %s"
                     % (min_location,))

    return ConjectureCertificate(
        holds=holds,
        critical_points=tuple(criticals),
        min_location=min_location,
        method="; ".join(trace),
        p_at_quarter=p_quarter,
        q_at_zero=q_zero,
        interior_q_roots=interior,
    )
