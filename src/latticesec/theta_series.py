"""Independent theta-series oracle via exact lattice point enumeration.

Counts lattice vectors by squared norm directly from a Gram matrix, so
the polynomial representation of a theta series can be cross-checked
against brute-force coefficients. The vectors come from the Fincke-Pohst
walker numfields.EllipsoidWalker, which decides every level in integers
and so yields exactly the vectors of norm at or below the cap, each run
of them with its exact quadratic; the norms, and so the counts, are
exact.

Rational Gram matrices are scaled by their common denominator up front,
and every Gram is divided by the gcd of its entries; the reported norms
are scaled back, as exact ints when integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._numpy import np

from .errors import DomainError, positive_int
from .numfields import EllipsoidWalker, _expand


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
    # Walking gi / f to the cap's floor over f keeps a scaled Gram in int64.
    f = math.gcd(*(x for row in gi for x in row)) or 1
    gi = [[x // f for x in row] for row in gi]
    walker = EllipsoidWalker(gi)  # also validates positive definiteness

    counts: dict[int, int] = {}
    # One walker group at a time, so no array holds the whole ball; each
    # run's norms come from its exact quadratic, all within the cap.
    g = gi[-1][-1]
    for _, lo, runs, c, b in walker.nodes(max_norm * den // f):
        parent, t = _expand(lo, runs, c.dtype)
        norms = c[parent] + t * (2 * b[parent] + g * t)
        for q, k in zip(*np.unique(norms, return_counts=True)):
            counts[int(q)] = counts.get(int(q), 0) + int(k)

    out: list[tuple[int | Fraction, int]] = []
    for q in sorted(counts):
        norm = Fraction(q * f, den)
        key: int | Fraction = int(norm) if norm.denominator == 1 else norm
        out.append((key, counts[q]))
    return out


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
