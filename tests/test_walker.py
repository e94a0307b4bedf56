"""The lattice-point walker against a brute-force box scan.

hypothesis draws small integer positive-definite Grams G = B B^T + I
(n = 1..5), with and without a box bound, and caps on, just below and
just above an integer norm. Every vector that the scan finds at or
below the cap, with its exact integer norm, must be among the walker's
candidates, which come out as groups of whole runs of the last
coordinate, in ascending lex order inside the box, the same for every
group size.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from latticesec import numfields
from latticesec.numfields import EllipsoidWalker, _box, _expand, _frac_det

# A fixed example sequence keeps the suite reproducible run to run.
walker_settings = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    b = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    gram = b @ b.T + np.eye(n, dtype=np.int64)
    m = draw(st.sampled_from((None, 1, 2, 3)))
    k = draw(st.integers(1, 9))
    cap = draw(st.sampled_from((float(k), np.nextafter(k, 0.0),
                                np.nextafter(k, np.inf))))
    return gram, m, cap


def walked(walker, cap, m=None):
    """The walker's candidates as rows, each group checked on the way:
    nonempty, every run nonempty, the prefixes strictly ascending across
    groups, so that no run is split, and with m given at most _GROUP + 2m
    prefixes in a group."""
    rows, prefixes = [], []
    for prefix, lo, runs in walker.nodes(cap, m):
        assert prefix.dtype == lo.dtype == runs.dtype == np.int64
        assert len(prefix) == len(lo) == len(runs) > 0 and np.all(runs > 0)
        if m is not None:
            assert len(prefix) <= numfields._GROUP + 2 * m
        prefixes += map(tuple, prefix.tolist())
        parent, last = _expand(lo, runs)
        rows.append(np.column_stack((prefix[parent], last)))
    assert all(a < b for a, b in zip(prefixes, prefixes[1:]))
    return np.concatenate(rows) if rows else np.empty((0, len(walker.d)), dtype=np.int64)


@walker_settings
@given(cases())
def test_walker_keeps_every_vector_of_a_box_scan(case):
    gram, m, cap = case
    n = len(gram)
    # G >= I, so |z_j|^2 <= z G z^T <= cap bounds the scan.
    bound = math.isqrt(int(cap)) if m is None else m
    z = np.array(list(itertools.product(range(-bound, bound + 1), repeat=n)))
    norms = np.einsum("ij,jk,ik->i", z, gram, z)
    want = {tuple(v) for v in z[norms <= cap].tolist()}

    walker = EllipsoidWalker(gram.tolist())
    got = walked(walker, cap, m)
    assert [tuple(v) for v in got.tolist()] == sorted(map(tuple, got.tolist()))
    if m is not None:
        assert np.all(np.abs(got) <= m)
    # Groups of any size give the same rows.
    for group in (1, 2, 5):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numfields, "_GROUP", group)
            assert np.array_equal(walked(walker, cap, m), got), group
    if m is not None:
        # A cap of m^2 corner or more walks the whole box, as _box stores
        # it: the carve relies on it.
        top = m * m * walker.corner
        assert top == max(v @ gram @ v for v in itertools.product((-m, m), repeat=n))
        for cap_top in (top, 2.0 * top):
            assert np.array_equal(walked(walker, cap_top, m), _box(n, m))
    assert want <= {tuple(v) for v in got.tolist()}


@pytest.mark.parametrize("scale", [10**8, 10**9, 10**12])
def test_numpy_integer_grams_walk_as_python_ints(scale):
    # Products of the scaled entries overflow int64 in the exact
    # decomposition unless they are taken as Python ints.
    gram = np.array([[7, 3, 1], [3, 9, 2], [1, 2, 11]]) * scale
    a, b = EllipsoidWalker(gram), EllipsoidWalker(gram.tolist())
    assert a.d == b.d and np.array_equal(a.u, b.u) and a.widen == b.widen
    assert a.det == b.det == _frac_det(gram.tolist())
    cap = 12 * scale
    assert len(walked(b, cap, 3)) > 1
    assert np.array_equal(walked(a, cap, 3), walked(b, cap, 3))

def _kappa_terms(gram):
    """sqrt(G_jj (G^-1)_jj) for each j, with (G^-1)_jj taken as the j-th
    principal minor over det G."""
    g = [[Fraction(int(x)) for x in row] for row in gram]
    det = _frac_det(g)
    return [math.sqrt(g[j][j] * _frac_det(
        [row[:j] + row[j + 1:] for i, row in enumerate(g) if i != j]) / det)
        for j in range(len(g))]


@walker_settings
@given(cases())
def test_widening_follows_the_inverse_gram_diagonal(case):
    # kappa = sum_j sqrt(G_jj (G^-1)_jj), summed by math.fsum.
    gram, _, _ = case
    kappa = math.fsum(_kappa_terms(gram))
    assert EllipsoidWalker(gram.tolist()).widen == 1.0 + 2.0 ** -30 * kappa * kappa


def test_widening_does_not_depend_on_the_builtin_sum():
    # kappa's terms here sum to another double left to right than by
    # math.fsum, and widen tells the two apart. Python 3.12 changed the
    # builtin sum of floats; math.fsum rounds the exact sum once on every
    # version, so widen is pinned.
    gram = [[3463129760, 3463129751, 10389389239],
            [3463129751, 3463129764, 10389389243],
            [10389389239, 10389389243, 31168167717]]
    terms = _kappa_terms(gram)
    left_to_right = functools.reduce(operator.add, terms)
    assert left_to_right != math.fsum(terms)
    assert 1.0 + 2.0 ** -30 * left_to_right ** 2 != 3.500427361851757
    assert EllipsoidWalker(gram).widen == 3.500427361851757
