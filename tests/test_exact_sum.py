"""The per-word terms and the exact sum, bit for bit.

constellation._ExactSum sums the nonnegative values a codebook gives it
(norms and terms), each counted twice, standing for itself and its
negation, and the extra values given to result (a carve's tied words)
once. The independent oracle is their exact sum in Fraction, rounded
once, with OverflowError past the largest double; an infinite value is
left out of the sum and sets the accumulator's infinite flag. math.fsum
of the same values must give the same outcome. Values and extras are
drawn over the whole nonnegative double range, with zeros, subnormals,
values of 2^997 and more (which the accumulator sets aside), +inf, and
totals within an ulp of the largest double and past it, and the values
are split into blocks at drawn boundaries.

constellation._terms must give, bit for bit, what the same IEEE
operations give row by row in Python floats, so that no SIMD kernel's
rounding can reach the sums.
"""

import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from latticesec import constellation
from latticesec.constellation import _ExactSum, _Scratch

# A fixed example sequence keeps the suite reproducible run to run.
oracle_settings = settings(max_examples=200, deadline=None, derandomize=True)

BIG = sys.float_info.max
ULP = math.ulp(BIG)  # 2^971
finite = st.floats(min_value=0.0, allow_infinity=False)
tiny = st.floats(min_value=0.0, max_value=1e-300)  # subnormals and zeros
special = st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 2.0 ** 997,
                           math.nextafter(2.0 ** 997, 0.0), BIG / 2, BIG, math.inf])


def _outcome(f, *args):
    """The bits of f(*args), or the type of what it raised."""
    try:
        return struct.pack("<d", f(*args))
    except OverflowError:
        return OverflowError


def _oracle(values, extra):
    """The exact sum of the finite values, each twice, and of the finite
    extra values, rounded once (int / int rounds correctly and raises
    OverflowError past the largest double)."""
    exact = 2 * sum(Fraction(v) for v in values if v < math.inf)
    exact += sum(Fraction(v) for v in extra if v < math.inf)
    return exact.numerator / exact.denominator


def _fsum(values, extra):
    return math.fsum([v for v in values if v < math.inf] * 2
                     + [v for v in extra if v < math.inf])


def _exact_sum(blocks, extra=()):
    """(infinite, result) of an accumulator fed the blocks in order."""
    acc = _ExactSum(_Scratch(1))
    for block in blocks:
        acc.add(np.asarray(block, dtype=np.float64))
    return acc.infinite, _outcome(acc.result, list(extra))


def _assert_exact(a, cuts=(), extra=()):
    a = np.asarray(a, dtype=np.float64)
    values, extra = a.tolist(), list(extra)
    want = _outcome(_oracle, values, extra)
    # math.fsum's partials can overflow where the exact total rounds to
    # the largest double; else it gives the same outcome.
    assert _outcome(_fsum, values, extra) in (want, OverflowError)
    if _outcome(_fsum, values, extra) != want:
        assert want == struct.pack("<d", BIG), values
    assert _exact_sum(np.split(a, sorted(cuts)), extra) == (math.inf in values, want)


@st.composite
def wide_arrays(draw):
    """A few thousand values with mantissas and exponents drawn from a
    seed, exponents spread over up to the whole range, zeros or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1000, 4000))
    lo, hi = sorted(draw(st.integers(-1074, 1023)) for _ in range(2))
    values = np.ldexp(rng.random(n) + 0.5, rng.integers(lo, hi + 1, n))
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    return values


@st.composite
def near_the_top(draw):
    """(values, extra) whose total, the values counted twice, is within a
    few ulps of the largest double: shares of it, rounded, and small
    values that move the total across the midpoint to 2^1024."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(draw(st.integers(1, 6))) + 0.01
    values = (BIG / 2 * (w / w.sum())).tolist()
    small = rng.random(draw(st.integers(0, 4))) * ULP * 2.0 ** -int(rng.integers(0, 60))
    extra = [ULP * float(rng.choice([0.25, 0.5, 0.75, 1.0, 1.5]))] if rng.random() < 0.5 else []
    return values + small.tolist(), extra


extras = st.lists(finite | tiny | special, max_size=6)


@oracle_settings
@given(st.lists(finite | tiny | special, max_size=40), extras)
def test_short_lists_match_fsum(values, extra):
    _assert_exact(values, extra=extra)


@oracle_settings
@given(wide_arrays(), extras)
def test_long_arrays_match_fsum(values, extra):
    _assert_exact(values, extra=extra)


@oracle_settings
@given(near_the_top(), st.booleans())
def test_totals_at_the_largest_double_match_fsum(case, split):
    values, extra = case
    _assert_exact(values, range(1, len(values)) if split else (), extra)


def test_edge_lengths_and_totals():
    half = BIG / 2  # exact: the largest double is 2 half
    for values in ([], [0.0], [0.0, 0.0], [5e-324], [2.0**-1022, 5e-324],
                   [1.0, 2.0**-53], [1.0, 2.0**-53, 5e-324],
                   [half], [BIG], [BIG, BIG], [half, ULP / 4], [half, ULP / 2],
                   [half, ULP / 4, 5e-324], [math.inf, 1.0], [math.inf, BIG],
                   [2.0 ** 997, math.nextafter(2.0 ** 997, 0.0)],
                   [2.0**1000] * 3000):
        for extra in ([], [1.0], [BIG], [ULP / 2], [ULP / 2, 5e-324],
                      [math.inf], [math.inf, 5e-324]):
            _assert_exact(values, extra=extra)
            # and block by block, one value per block
            _assert_exact(values, range(1, len(values)), extra)
    # Totals at the largest double: the midpoint to 2^1024 rounds up.
    assert _exact_sum([[half]], [math.nextafter(ULP / 2, 0.0)]) == (False, struct.pack("<d", BIG))
    assert _exact_sum([[half, ULP / 4]]) == (False, OverflowError)
    assert _exact_sum([[BIG / 4]], [BIG / 2]) == (False, struct.pack("<d", BIG))
    # Only the extra value takes the total past the largest double.
    assert _exact_sum([[BIG / 4]], [BIG * 0.75]) == (False, OverflowError)
    # An infinite value is set aside: the finite ones are summed.
    assert _exact_sum([[math.inf, 1.0]], [2.0]) == (True, struct.pack("<d", 4.0))


@st.composite
def blocks(draw):
    """One array of a few blocks, each of finite values, zeros, +inf and
    ones, or values near the largest double, and boundaries drawn at
    random, empty blocks included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(
            ("finite", "wide", "zeros", "special", "huge")), min_size=1, max_size=5)):
        k = int(rng.integers(1, 300))
        if kind == "finite":
            part = draw(st.lists(finite | tiny, min_size=1, max_size=60))
        elif kind == "wide":
            part = draw(wide_arrays())[:k]
        elif kind == "zeros":
            part = np.zeros(k)
        elif kind == "special":
            part = rng.choice([math.inf, 1.0, 2.0 ** 997], k)
        else:
            part = BIG * rng.uniform(0.0, 1.0, k) * 2.0 ** -float(rng.integers(0, 40))
        parts.append(np.asarray(part, dtype=np.float64))
    values = np.concatenate(parts)
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=8))
    return values, cuts


@oracle_settings
@given(blocks(), st.sampled_from([1, 2, 7, 1 << 26]), extras)
def test_blocked_sums_match_fsum(case, max_parts, extra):
    # Any split of the values into blocks, with the bins flushed at most
    # every max_parts values (2^26 is the exactness bound), gives the
    # exact outcome. A block holds at most max_parts values.
    values, cuts = case
    cuts = set(cuts) | set(range(max_parts, len(values), max_parts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constellation, "_MAX_PARTS", max_parts)
        _assert_exact(values, cuts, extra)


def _term(row):
    """prod |a_i|^-3 of one row in Python floats: the product left to
    right, its reciprocal r, then (r*r)*r."""
    p = row[0]
    for a in row[1:]:
        p *= a
    r = 1.0 / p
    return (r * r) * r


# Coordinates of diverse words, from DIVERSITY_EPS to where a product
# overflows; with up to 12 of them, a cube overflows too.
coordinates = st.floats(min_value=1e-12, max_value=1e154)


@oracle_settings
@example([[1e154, 1e154], [1e-12, 1e-12]])  # terms 0 and 1e72
@example([[1e-12] * 9])  # a cube past the largest double: inf
@given(st.integers(1, 12).flatmap(lambda k: st.lists(
           st.lists(coordinates, min_size=k, max_size=k), min_size=1, max_size=40)))
def test_terms_match_a_per_row_python_reference(rows):
    got = constellation._terms(np.array(rows), *np.empty((2, len(rows))))
    assert got.tobytes() == np.array([_term(row) for row in rows]).tobytes()
