"""The per-word terms and the exact slice sum, bit for bit.

constellation._ExactSum bins integer mantissa parts by exponent, block
by block, and rounds once. Every value added stands for itself and its
negation, so it counts twice, and the extra values given to result (a
carve's tied words) count once: math.fsum(values * 2 + extra) is the
independent oracle. Values and extras are drawn over the whole double
range, with zeros, subnormals, both signs, infinities and NaNs, and
totals past the largest double, and the values are split into blocks at
drawn boundaries.

constellation._terms must give, bit for bit, what the same IEEE
operations give row by row in Python floats, so that no SIMD kernel's
rounding can reach the sums.
"""

import math
import struct
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from latticesec import constellation
from latticesec.constellation import _ExactSum, _Scratch

# A fixed example sequence keeps the suite reproducible run to run.
oracle_settings = settings(max_examples=200, deadline=None, derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
tiny = st.floats(min_value=-1e-300, max_value=1e-300)  # subnormals and zeros
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                           -sys.float_info.max, math.inf, -math.inf, math.nan])


def _outcome(f, values):
    """The bits of f(values), or the type and message of what it raised."""
    try:
        return struct.pack("<d", f(values))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _fsum(values, extra):
    """The oracle: math.fsum of the values, each twice, then of extra."""
    return math.fsum(list(values) * 2 + list(extra))


def _exact_sum(blocks, extra=()):
    """The accumulator's sum of the blocks, fed in order, and of extra, or
    the oracle's where it has none (constellation.report then reads the
    values themselves again), so only the sums it gives are checked."""
    acc = _ExactSum(_Scratch(1))
    for block in blocks:
        acc.add(np.asarray(block, dtype=np.float64))
    total = acc.result(list(extra))
    return _fsum(np.concatenate(blocks).tolist(), extra) if total is None else total


def _assert_matches_fsum(a, cuts=(), extra=()):
    a = np.asarray(a, dtype=np.float64)
    blocks = np.split(a, sorted(cuts))
    assert (_outcome(lambda b: _exact_sum(b, extra), blocks)
            == _outcome(lambda v: _fsum(v, extra), a.tolist()))


@st.composite
def wide_arrays(draw):
    """A few thousand values with mantissas and exponents drawn from a
    seed: signs mixed or not, exponents spread over up to the whole range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1000, 4000))
    lo, hi = sorted(draw(st.integers(-1074, 1023)) for _ in range(2))
    values = np.ldexp(rng.random(n) + 0.5, rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):
        values *= rng.choice([-1.0, 1.0], n)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    return values


extras = st.lists(finite | tiny | special, max_size=6)


@oracle_settings
@given(st.lists(finite | tiny | special, max_size=40), extras)
def test_short_lists_match_fsum(values, extra):
    _assert_matches_fsum(values, extra=extra)


@oracle_settings
@given(wide_arrays(), extras)
def test_long_arrays_match_fsum(values, extra):
    _assert_matches_fsum(values, extra=extra)


def test_edge_lengths_and_totals():
    big = sys.float_info.max
    for values in ([], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324],
                   [2.0**-1022, -5e-324], [1.0, 2.0**-53], [1.0, 2.0**-53, 5e-324],
                   [big], [big, big], [big, big, -big], [big, -big],
                   [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
                   [2.0**1000] * 3000):
        for extra in ([], [1.0], [big], [-big], [math.inf], [math.nan, 5e-324]):
            _assert_matches_fsum(values, extra=extra)
            # and block by block, one value per block
            _assert_matches_fsum(values, range(1, len(values)), extra)
    with pytest.raises(OverflowError):
        _exact_sum([np.array([big / 2]), np.array([big / 4])])
    # Only the extra value takes the total past the largest double.
    with pytest.raises(OverflowError):
        _exact_sum([np.array([big / 4])], [big * 0.75])
    assert _exact_sum([np.array([big / 4])], [big / 2]) == big


@st.composite
def blocks(draw):
    """One array of a few blocks, each of finite values, zeros of either
    sign, infinities and NaNs, or values near the largest double, and
    boundaries drawn at random, empty blocks included."""
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
            part = rng.choice([0.0, -0.0], k)
        elif kind == "special":
            part = rng.choice([math.inf, -math.inf, math.nan, 1.0], k)
        else:
            part = (sys.float_info.max * rng.uniform(0.25, 1.0, k)
                    * rng.choice([-1.0, 1.0], k))
        parts.append(np.asarray(part, dtype=np.float64))
    values = np.concatenate(parts)
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=8))
    return values, cuts


@oracle_settings
@given(blocks(), st.sampled_from([1, 2, 7, 1 << 26]), extras)
def test_blocked_sums_match_fsum(case, max_parts, extra):
    # Any split of the values into blocks, with the bins flushed at most
    # every max_parts values (2^26 is the exactness bound), gives fsum's
    # outcome. A block holds at most max_parts values.
    values, cuts = case
    cuts = set(cuts) | set(range(max_parts, len(values), max_parts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constellation, "_MAX_PARTS", max_parts)
        _assert_matches_fsum(values, cuts, extra)


def _term(row, exponent):
    """prod |a_i|^-exponent of one row in Python floats: the product left
    to right, its reciprocal, then square and multiply from the top bit."""
    p = row[0]
    for a in row[1:]:
        p *= a
    r = 1.0 / p
    out = r
    for bit in bin(exponent)[3:]:
        out *= out
        if bit == "1":
            out *= r
    return out


coordinates = st.floats(min_value=1e-12, max_value=1e12)


@oracle_settings
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
           st.lists(coordinates, min_size=k, max_size=k), min_size=1, max_size=40)),
       st.integers(1, 12) | st.just(250))
def test_terms_match_a_per_row_python_reference(rows, exponent):
    got = constellation._terms(np.array(rows), exponent, *np.empty((2, len(rows))))
    assert got.tobytes() == np.array([_term(row, exponent) for row in rows]).tobytes()
