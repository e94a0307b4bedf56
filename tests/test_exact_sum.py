"""The per-word terms and the exact slice sum, bit for bit.

constellation._exact_sum bins integer mantissa parts by exponent and
rounds once; math.fsum is the independent oracle. Values are drawn
over the whole double range, with zeros, subnormals, both signs,
infinities and NaNs, and totals past the largest double.

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
from latticesec.constellation import _exact_sum

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


def _assert_matches_fsum(a):
    a = np.asarray(a, dtype=np.float64)
    assert _outcome(_exact_sum, a) == _outcome(math.fsum, a.tolist())


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


@oracle_settings
@given(st.lists(finite | tiny | special, max_size=40))
def test_short_lists_match_fsum(values):
    _assert_matches_fsum(values)


@oracle_settings
@given(wide_arrays())
def test_long_arrays_match_fsum(values):
    _assert_matches_fsum(values)


def test_edge_lengths_and_totals():
    big = sys.float_info.max
    for values in ([], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324],
                   [2.0**-1022, -5e-324], [1.0, 2.0**-53], [1.0, 2.0**-53, 5e-324],
                   [big], [big, big], [big, big, -big], [big, -big],
                   [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
                   [2.0**1000] * 3000):
        _assert_matches_fsum(values)
    with pytest.raises(OverflowError):
        _exact_sum(np.array([big, big / 2]))


@oracle_settings
@given(st.lists(finite | tiny, max_size=60) | wide_arrays())
def test_chunked_sums_match_fsum(values):
    # Chunks of 7 terms exercise the chunk loop that long inputs run.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constellation, "_CHUNK", 7)
        _assert_matches_fsum(values)


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
    got = constellation._terms(np.array(rows), exponent)
    assert got.tobytes() == np.array([_term(row, exponent) for row in rows]).tobytes()
