"""Exact polynomial arithmetic over the rationals.

Polynomials are tuples of fractions.Fraction, index = power, with no
trailing zero coefficients (the zero polynomial is the empty tuple).
Everything here is exact; no floating point enters any computation.
The module provides the Sturm-sequence machinery, and roots_in, the
one root isolator, for certifying polynomial minima and for the real
roots of number-field minimal polynomials. A Sturm count runs on p as
given and counts its distinct roots even when p is not squarefree: the
chain of p ends in gcd(p, p'), which divides every element of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError

Poly = tuple[Fraction, ...]


def make_poly(coeffs: Iterable) -> Poly:
    """Build a polynomial from low-to-high coefficients, trimming zeros."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    """Degree of p; the zero polynomial has degree -1 by convention."""
    return len(p) - 1


def evaluate(p: Poly, x: Fraction) -> Fraction:
    """Horner evaluation at an exact rational point."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return make_poly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return make_poly(
        (p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)
    )


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return make_poly(out)


def scale(p: Poly, k) -> Poly:
    k = Fraction(k)
    return make_poly(c * k for c in p)


def power(p: Poly, e: int) -> Poly:
    if e < 0:
        raise DomainError("negative polynomial power")
    out = make_poly([1])
    for _ in range(e):
        out = mul(out, p)
    return out


def derivative(p: Poly) -> Poly:
    return make_poly(i * c for i, c in enumerate(p) if i > 0)


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division a = q*b + r with deg r < deg b (schoolbook)."""
    if not b:
        raise DomainError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for e in range(len(a) - len(b), -1, -1):
        s = r[e + len(b) - 1] / b[-1]
        if s:
            q[e] = s
            for i, c in enumerate(b):
                r[e + i] -= s * c
    return make_poly(q), make_poly(r[:len(b) - 1])


def sturm_chain(p: Poly) -> list[Poly]:
    """Standard Sturm sequence p, p', and negated remainders."""
    chain = [p, derivative(p)]
    while chain[-1] and degree(chain[-1]) > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(scale(rem, -1))
    return [c for c in chain if c]


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), the last element of its Sturm chain up
    to a constant: same roots, all simple."""
    if degree(p) <= 0:
        return p
    g = sturm_chain(p)[-1]
    if degree(g) <= 0:
        return p
    return divmod_poly(p, g)[0]


def sign_variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0 so that Sturm's theorem applies
    without boundary qualifications.
    """
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise DomainError("empty interval for root counting")
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        raise DomainError("root counting requires nonroot endpoints")
    chain = sturm_chain(p)
    return sign_variations(chain, a) - sign_variations(chain, b)


# Deterministic fallback split points used when the midpoint of an
# interval happens to be a root; a polynomial has finitely many roots
# so one of these always works.
_SPLIT_OFFSETS = (
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5),
    Fraction(3, 5), Fraction(1, 7), Fraction(6, 7), Fraction(1, 11),
)


def _split_point(p: Poly, a: Fraction, b: Fraction) -> Fraction:
    for t in _SPLIT_OFFSETS:
        m = a + t * (b - a)
        if evaluate(p, m) != 0:
            return m
    raise DomainError("could not find a nonroot split point")


def isolate_roots_open(chain: Sequence[Poly], a, b) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, each containing exactly one
    distinct real root in (a, b) of p = chain[0], given its Sturm chain.

    Endpoints a, b must not be roots. Intervals are returned in
    ascending order and their endpoints are never roots of p.
    """
    p = chain[0]
    a, b = Fraction(a), Fraction(b)
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        raise DomainError("isolation interval endpoints must not be roots")
    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction) -> None:
        n = sign_variations(chain, lo) - sign_variations(chain, hi)
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        m = _split_point(p, lo, hi)
        rec(lo, m)
        rec(m, hi)

    rec(a, b)
    return out


def refine_isolating_interval(
    p: Poly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a root below `width`.

    p must have exactly one root in (lo, hi), of odd multiplicity, and
    the endpoints must not be roots; then p changes sign across the root
    and plain bisection applies. If a bisection point hits the root
    exactly, the degenerate interval (r, r) is returned.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    flo = evaluate(p, lo)
    if flo == 0 or evaluate(p, hi) == 0:
        raise DomainError("refinement endpoints must not be roots")
    s_lo = 1 if flo > 0 else -1
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = evaluate(p, mid)
        if fm == 0:
            return mid, mid
        if (1 if fm > 0 else -1) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def cauchy_root_bound(p: Poly) -> Fraction:
    """All real roots of p lie strictly inside (-B, B) for this B."""
    if degree(p) < 1:
        raise DomainError("root bound needs degree >= 1")
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def roots_in(p: Poly, a, b, width) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the distinct roots of p in (a, b), whose
    endpoints are not roots, refined below `width`; ascending. If p has a
    repeated root (its Sturm chain ends in a nonconstant gcd(p, p')), it
    is first replaced by its squarefree part, so that bisection applies."""
    chain = sturm_chain(p)
    if degree(chain[-1]) > 0:
        p = squarefree_part(p)
        chain = sturm_chain(p)
    return [refine_isolating_interval(p, lo, hi, width)
            for lo, hi in isolate_roots_open(chain, a, b)]


def real_roots(p: Poly, precision: Fraction = Fraction(1, 10**15)) -> list[Fraction]:
    """All distinct real roots of p as rational approximations.

    Each returned value lies within `precision` of the true root; a
    root that bisection meets exactly is returned exactly. Ascending
    order.
    """
    if degree(p) < 1:
        return []
    bound = cauchy_root_bound(p)
    return [(lo + hi) / 2 for lo, hi in roots_in(p, -bound, bound, precision)]
