"""The lattice-point walker against a brute-force box scan.

hypothesis draws small integer positive-definite Grams G = B B^T + I
(n = 1..5) and the badly conditioned [[a, a-1], [a-1, a]], some scaled
by 2^k past int64, with and without a box bound, and caps on, just
below and just above an integer norm. The walker's vectors must be
exactly those that the scan finds at or below the cap, each run's
quadratic giving their exact norms; they come out as groups of whole
runs of the last coordinate, in ascending lex order inside the box,
the same for every group size.
"""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from latticesec import numfields
from latticesec.errors import DomainError
from latticesec.numfields import EllipsoidWalker, _box, _expand, _frac_det

# A fixed example sequence keeps the suite reproducible run to run.
walker_settings = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    """(gram, m, cap, scale): G >= I in each case, so the vectors within
    the cap lie in the box of side isqrt(cap); the walk is of scale G to
    scale cap."""
    n = draw(st.integers(1, 5))
    if n == 2 and draw(st.booleans()):
        # (a-1)(z1+z2)^2 + z1^2 + z2^2, with condition number 2a-1.
        a = 2 ** draw(st.integers(0, 70))
        gram = [[a, a - 1], [a - 1, a]]
    else:
        b = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
        gram = (b @ b.T + np.eye(n, dtype=np.int64)).tolist()
    m = draw(st.sampled_from((None, 1, 2, 3)))
    k = draw(st.integers(1, 9))
    cap = draw(st.sampled_from((float(k), np.nextafter(k, 0.0),
                                np.nextafter(k, np.inf))))
    return gram, m, cap, 2 ** draw(st.sampled_from((0, 0, 20, 40, 70)))


def walked(walker, cap, m=None):
    """The walker's vectors as int64 rows and, by each run's quadratic,
    their norms, each group checked on the way: nonempty, every run
    nonempty, the prefixes strictly ascending across groups, so that no
    run is split, and with m given at most _GROUP + 2m prefixes in a
    group."""
    n, g = len(walker.gram), walker.gram[-1][-1]
    rows, norms, prefixes = [], [], []
    for prefix, lo, runs, c, b in walker.nodes(cap, m):
        assert prefix.dtype == lo.dtype == runs.dtype == np.int64
        assert len(prefix) == len(lo) == len(runs) == len(c) == len(b) > 0
        assert np.all(runs > 0)
        if m is not None:
            assert len(prefix) <= numfields._GROUP + 2 * m
        prefixes += map(tuple, prefix.tolist())
        parent, last = _expand(lo, runs)
        rows.append(np.column_stack((prefix[parent], last)))
        t = last.astype(c.dtype)
        norms += (c[parent] + t * (2 * b[parent] + g * t)).tolist()
    assert all(a < b for a, b in zip(prefixes, prefixes[1:]))
    return (np.concatenate(rows) if rows else np.empty((0, n), dtype=np.int64)), norms


@walker_settings
@given(cases())
def test_walker_keeps_every_vector_of_a_box_scan(case):
    gram, m, cap, scale = case
    n = len(gram)
    gram = [[x * scale for x in row] for row in gram]
    cap = cap * scale
    bound = math.isqrt(int(cap // scale)) if m is None else m
    z = list(itertools.product(range(-bound, bound + 1), repeat=n))
    norms = {v: sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) for v in z}
    want = {v: q for v, q in norms.items() if q <= cap}

    walker = EllipsoidWalker(gram)
    got, q = walked(walker, cap, m)
    assert dict(zip(map(tuple, got.tolist()), q)) == want
    assert [tuple(v) for v in got.tolist()] == sorted(want)
    # Groups of any size give the same rows.
    for group in (1, 2, 5):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numfields, "_GROUP", group)
            rows, again = walked(walker, cap, m)
            assert np.array_equal(rows, got) and again == q, group
    if m is not None:
        # A cap of m^2 corner or more walks the whole box, as _box stores
        # it: the carve relies on it.
        top = m * m * walker.corner
        assert top == max(norms[v] for v in itertools.product((-m, m), repeat=n))
        for cap_top in (top, 2 * top):
            rows, q = walked(walker, cap_top, m)
            assert np.array_equal(rows, _box(n, m))
            assert q == [norms[tuple(v)] for v in rows.tolist()]


@pytest.mark.parametrize("e", [30, 40, 50, 70])
def test_a_badly_conditioned_gram_walks_only_its_ball(e):
    # (a-1)(z1+z2)^2 + z1^2 + z2^2 to norm 8 holds 0, +-(1,-1) and
    # +-(2,-2). Every level is decided in integers, so the walk visits
    # those 5 vectors and no other, whatever the condition number 2a-1.
    a = 2 ** e
    rows, q = walked(EllipsoidWalker([[a, a - 1], [a - 1, a]]), 8)
    assert rows.tolist() == [[-2, 2], [-1, 1], [0, 0], [1, -1], [2, -2]]
    assert q == [8, 2, 0, 2, 8]


@pytest.mark.parametrize("scale", [10**8, 10**9, 10**12])
def test_numpy_integer_grams_walk_as_python_ints(scale):
    # Products of the scaled entries overflow int64 in the exact
    # decomposition unless they are taken as Python ints.
    gram = np.array([[7, 3, 1], [3, 9, 2], [1, 2, 11]]) * scale
    a, b = EllipsoidWalker(gram), EllipsoidWalker(gram.tolist())
    assert a.gram == b.gram and a.delta == b.delta and a.w == b.w
    assert all(type(x) is int for x in a.delta + sum(a.w, []))
    assert a.det == b.det == _frac_det(gram.tolist())
    cap = 12 * scale
    rows, q = walked(b, cap, 3)
    assert len(rows) > 1 and max(q) <= cap
    rows_a, q_a = walked(a, cap, 3)
    assert np.array_equal(rows_a, rows) and q_a == q


def test_gram_must_be_an_integral_positive_definite_form():
    with pytest.raises(DomainError):
        EllipsoidWalker([[1.5]])
    with pytest.raises(DomainError):
        EllipsoidWalker([[1, 2], [2, 1]])
