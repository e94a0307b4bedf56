"""Independent theta-series oracle via exact lattice point enumeration.

Counts lattice vectors by squared norm directly from a Gram matrix, so
the polynomial representation of a theta series can be cross-checked
against brute-force coefficients. Candidates come from the Fincke-Pohst
walker numfields.EllipsoidWalker, which keeps every vector of exact
norm at or below the cap; each candidate's norm is then computed in
exact integer arithmetic, so the returned counts are exact.

Rational Gram matrices are scaled by their common denominator up front;
the reported norms are scaled back, as exact ints when integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, positive_int
from .numfields import EllipsoidWalker


def _as_fraction_matrix(gram) -> list[list[Fraction]]:
    g = [[Fraction(x) for x in row] for row in gram]
    n = len(g)
    if n == 0 or any(len(row) != n for row in g):
        raise DomainError("gram matrix must be square and nonempty")
    for i in range(n):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise DomainError("gram matrix must be symmetric")
    return g


def theta_series_oracle(gram, max_norm: int) -> list[tuple[int | Fraction, int]]:
    """Counts N(r) of lattice vectors with squared norm r <= max_norm.

    gram is an exact-rational symmetric positive definite matrix given
    as nested sequences; max_norm a positive integer. Returns (norm,
    count) pairs sorted by norm, restricted to norms that occur; the
    zero vector always contributes (0, 1).
    """
    max_norm = positive_int(max_norm, "max_norm")
    g = _as_fraction_matrix(gram)
    den = math.lcm(*(x.denominator for row in g for x in row))
    gi = [[int(x * den) for x in row] for row in g]
    cap = max_norm * den
    walker = EllipsoidWalker(gi)  # also validates positive definiteness

    counts: dict[int, int] = {}
    for z1 in walker.leading(cap):
        z = walker.vectors(z1, cap)
        # int64 is exact while sum_ij |G_ij| b_i b_j, with b_j >= 1 bounding
        # |z_j|, stays below 2^63; past that Python ints take over.
        b = [max(1, int(v)) for v in np.abs(z).max(axis=0, initial=0)]
        wide = sum(abs(gi[i][j]) * b[i] * b[j] for i in range(len(b))
                   for j in range(len(b))) >= 2 ** 63
        dtype = object if wide else np.int64
        z = z.astype(np.int64).astype(dtype, copy=False)
        norms = ((z @ np.array(gi, dtype=dtype)) * z).sum(axis=1)
        for q, c in zip(*np.unique(norms, return_counts=True)):
            if int(q) <= cap:
                counts[int(q)] = counts.get(int(q), 0) + int(c)

    out: list[tuple[int | Fraction, int]] = []
    for q in sorted(counts):
        norm = Fraction(q, den)
        key: int | Fraction = int(norm) if norm.denominator == 1 else norm
        out.append((key, counts[q]))
    return out


def theta_series_value(counts, y: float) -> float:
    """Partial theta sum sum_r N(r) exp(-pi y r) from oracle counts."""
    return math.fsum(c * math.exp(-math.pi * y * float(r)) for r, c in counts)


# Gram matrix of the E8 root lattice (Cartan matrix, Bourbaki node
# ordering: chain 1-3-4-5-6-7-8 with node 2 attached to node 4).
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))

E8_GRAM: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        2 if i == j else (-1 if (i, j) in _E8_EDGES or (j, i) in _E8_EDGES else 0)
        for j in range(8)
    )
    for i in range(8)
)
