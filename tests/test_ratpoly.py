"""Sturm root counting, isolation and squarefree parts against sympy,
and Euclidean division against its defining identity.

Polynomials are drawn as products of rational linear factors and
quadratic factors irreducible over Q, each raised to a power of up to
three, so repeated roots are the rule. Sturm's theorem counts distinct
roots of such polynomials without a squarefree reduction; sympy's root
counts, real roots and squarefree parts are the independent oracle.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from latticesec import ratpoly

X = sympy.Symbol("x")

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
nonzero = st.builds(Fraction, st.integers(1, 40) | st.integers(-40, -1),
                    st.integers(1, 12))
multiplicities = st.integers(1, 3)
# A fixed example sequence keeps the suite reproducible run to run.
oracle_settings = settings(max_examples=60, deadline=None, derandomize=True)


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


@st.composite
def quadratics(draw):
    """Monic x^2 + b x + c irreducible over Q: complex or irrational roots."""
    b, c = draw(rationals), draw(rationals)
    assume(not _is_rational_square(b * b - 4 * c))
    return ratpoly.make_poly([c, b, 1])


@st.composite
def polynomials(draw):
    """A nonzero rational constant times powers of linear and quadratic factors."""
    p = ratpoly.make_poly([draw(nonzero)])
    for root, k in draw(st.lists(st.tuples(rationals, multiplicities), max_size=4)):
        p = ratpoly.mul(p, ratpoly.power(ratpoly.make_poly([-root, 1]), k))
    for quad, k in draw(st.lists(st.tuples(quadratics(), multiplicities), max_size=2)):
        p = ratpoly.mul(p, ratpoly.power(quad, k))
    assume(ratpoly.degree(p) >= 1)
    return p


def _rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _sympy_poly(p):
    return sympy.Poly([_rational(c) for c in reversed(p)], X, domain="QQ")


@st.composite
def polynomial_and_interval(draw):
    """A polynomial with an interval (a, b) whose endpoints are not roots."""
    p = draw(polynomials())
    a, b = sorted((draw(rationals), draw(rationals)))
    assume(a < b)
    assume(ratpoly.evaluate(p, a) != 0 and ratpoly.evaluate(p, b) != 0)
    return p, a, b


@oracle_settings
@given(polynomial_and_interval())
def test_count_roots_open_counts_distinct_roots(case):
    p, a, b = case
    expected = _sympy_poly(p).count_roots(_rational(a), _rational(b))
    assert ratpoly.count_roots_open(p, a, b) == expected


@oracle_settings
@given(polynomial_and_interval())
def test_isolate_roots_open_isolates_each_distinct_root(case):
    p, a, b = case
    sp = _sympy_poly(p)
    intervals = ratpoly.isolate_roots_open(ratpoly.sturm_chain(p), a, b)
    assert len(intervals) == sp.count_roots(_rational(a), _rational(b))
    edges = [a] + [x for iv in intervals for x in iv] + [b]
    assert edges == sorted(edges)
    for lo, hi in intervals:
        assert lo < hi
        assert ratpoly.evaluate(p, lo) != 0 and ratpoly.evaluate(p, hi) != 0
        assert sp.count_roots(_rational(lo), _rational(hi)) == 1


@oracle_settings
@given(polynomials())
def test_squarefree_part_keeps_the_roots_and_makes_them_simple(p):
    sq = ratpoly.squarefree_part(p)
    assert _sympy_poly(sq).monic() == _sympy_poly(p).sqf_part().monic()
    assert ratpoly.divmod_poly(p, sq)[1] == ()


@oracle_settings
@given(polynomials())
def test_real_roots_approximates_each_distinct_real_root(p):
    precision = Fraction(1, 10**15)
    expected = sorted(set(sympy.real_roots(_sympy_poly(p))), key=lambda r: float(r))
    approx = ratpoly.real_roots(p, precision)
    assert len(approx) == len(expected)
    for r, exact in zip(approx, expected):
        assert abs(_rational(r) - exact) <= _rational(precision)


def _poly(*coeffs):
    return ratpoly.make_poly(coeffs)


# About half the coefficients zero, so that sparse polynomials are common.
sparse_polys = st.lists(st.just(Fraction(0)) | rationals, max_size=9).map(
    ratpoly.make_poly)


@oracle_settings
@given(sparse_polys, sparse_polys.filter(bool))
@example((), _poly(1, 2))
@example(_poly(3, 1), _poly(0, 0, 0, 5))
@example(_poly(1, 0, 0, 0, 0, 0, 0, 0, 2), _poly(0, 0, 0, 1))
@example(_poly(-1, 0, 0, 0, 0, 0, 1), _poly(7))
def test_divmod_poly_is_euclidean_division(a, b):
    q, r = ratpoly.divmod_poly(a, b)
    assert ratpoly.add(ratpoly.mul(q, b), r) == a
    assert ratpoly.degree(r) < ratpoly.degree(b)
    assert q == ratpoly.make_poly(q) and r == ratpoly.make_poly(r)


@oracle_settings
@given(polynomial_and_interval())
# Only a double root in (0, 1): no interval changes sign.
@example((ratpoly.mul(ratpoly.power(_poly(Fraction(-1, 3), 1), 2), _poly(1, 0, 1)),
          Fraction(0), Fraction(1)))
def test_roots_in_refines_each_distinct_root(case):
    p, a, b = case
    width = Fraction(1, 10**12)
    expected = sorted({r for r in sympy.real_roots(_sympy_poly(p))
                       if _rational(a) < r < _rational(b)}, key=float)
    intervals = ratpoly.roots_in(p, a, b, width)
    assert len(intervals) == len(expected)
    for (lo, hi), root in zip(intervals, expected):
        assert hi - lo <= width
        assert _rational(lo) <= root <= _rational(hi)
