"""The lattice-point walker against a brute-force box scan.

hypothesis draws small integer positive-definite Grams G = B B^T + I
(n = 1..5), with and without a box bound, and caps on, just below and
just above an integer norm. Every vector that the scan finds at or
below the cap, with its exact integer norm, must be among the walker's
candidates, and each slice's candidates must come out in ascending lex
order inside the box.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from latticesec.numfields import EllipsoidWalker, _box, _frac_det

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

    walker = EllipsoidWalker(gram.tolist(), m)
    slices = []
    for z1 in walker.leading(cap):
        z = walker.vectors(z1, cap)
        assert z.dtype == np.float64 and z.shape[1] == n and np.all(z[:, 0] == z1)
        assert [tuple(v) for v in z.tolist()] == sorted(map(tuple, z.tolist()))
        if m is not None:
            assert np.all(np.abs(z) <= m)
        if m is not None and n > 1:
            # The candidates' rest vectors are rows of the rest box, bit
            # for bit as _box stores them.
            rest = z[:, 1:]
            rows = np.ravel_multi_index((rest + m).astype(np.intp).T,
                                        (2 * m + 1,) * (n - 1))
            assert np.array_equal(_box(n - 1, m)[rows].view(np.int64),
                                  rest.view(np.int64))
        slices.append(z)
    # Walking every slice at once gives the same candidates in the same order.
    assert np.array_equal(walker.vectors(None, cap), np.concatenate(slices))
    assert want <= {tuple(v) for v in np.concatenate(slices).tolist()}



@pytest.mark.parametrize("scale", [10**8, 10**9, 10**12])
def test_numpy_integer_grams_walk_as_python_ints(scale):
    # Products of the scaled entries overflow int64 in the exact
    # decomposition unless they are taken as Python ints.
    gram = np.array([[7, 3, 1], [3, 9, 2], [1, 2, 11]]) * scale
    a, b = EllipsoidWalker(gram, 3), EllipsoidWalker(gram.tolist(), 3)
    assert a.d == b.d and np.array_equal(a.u, b.u) and a.widen == b.widen
    cap = 12 * scale
    assert len(b.vectors(None, cap)) > 1
    assert np.array_equal(a.vectors(None, cap), b.vectors(None, cap))

@walker_settings
@given(cases())
def test_widening_follows_the_inverse_gram_diagonal(case):
    # kappa = sum_j sqrt(G_jj (G^-1)_jj), with (G^-1)_jj taken here as the
    # j-th principal minor over det G.
    gram, m, _ = case
    g = [[Fraction(int(x)) for x in row] for row in gram]
    det = _frac_det(g)
    kappa = sum(math.sqrt(g[j][j] * _frac_det(
        [row[:j] + row[j + 1:] for i, row in enumerate(g) if i != j]) / det)
        for j in range(len(g)))
    assert EllipsoidWalker(gram.tolist(), m).widen == 1.0 + 2.0 ** -30 * kappa * kappa
