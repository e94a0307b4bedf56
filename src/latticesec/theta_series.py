"""Independent theta-series oracle via exact lattice point enumeration.

Counts lattice vectors by squared norm directly from a Gram matrix, so
the polynomial representation of a theta series can be cross-checked
against brute-force coefficients. Enumeration is Fincke-Pohst style:
coordinate ranges come from a floating LDL^T decomposition padded
against rounding, while membership of every candidate is decided in
exact integer arithmetic, so the returned counts are exact.

Rational Gram matrices are scaled by their common denominator up front;
the reported norms are scaled back, as exact ints when integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

# Absolute padding added to floating coordinate bounds. Bounds are only
# a superset filter (candidates are checked exactly), so generous
# padding costs a few extra leaf tests and can never lose a vector.
_PAD = 1e-6


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


def _exact_ldl(g: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """G = L D L^T with unit lower-triangular L; raises unless G is PD."""
    n = len(g)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for i in range(n):
        L[i][i] = Fraction(1)
        for j in range(i):
            s = g[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / D[j]
        D[i] = g[i][i] - sum(L[i][k] ** 2 * D[k] for k in range(i))
        if D[i] <= 0:
            raise DomainError("gram matrix is not positive definite")
    return L, D


def theta_series_oracle(gram, max_norm: int) -> list[tuple[int | Fraction, int]]:
    """Counts N(r) of lattice vectors with squared norm r <= max_norm.

    gram is an exact-rational symmetric positive definite matrix given
    as nested sequences; max_norm a positive integer. Returns (norm,
    count) pairs sorted by norm, restricted to norms that occur; the
    zero vector always contributes (0, 1).
    """
    if not (isinstance(max_norm, int) and max_norm >= 1):
        raise DomainError("max_norm must be a positive integer")
    g = _as_fraction_matrix(gram)
    n = len(g)
    L, D = _exact_ldl(g)  # also validates positive definiteness

    # Scale to an integer Gram so all norm arithmetic is exact ints.
    den = 1
    for row in g:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    gi = [[int(x * den) for x in row] for row in g]
    cap = max_norm * den

    Lf = [[float(x) for x in row] for row in L]
    Df = [float(x) for x in D]

    counts: dict[int, int] = {}

    # Depth-first over coordinates x_{n-1} .. x_0. partial carries the
    # float norm of the fixed tail, t[i] the float inner products
    # sum_{j>i} L[j][i] x_j. The innermost coordinate is solved exactly
    # as an integer quadratic: norm = a x0^2 + b x0 + c with a, b, c
    # integers maintained from the integer Gram.
    cap_f = float(max_norm) + _PAD

    def leaf_range(xs_tail: list[int]) -> None:
        # xs_tail holds x_1..x_{n-1}; solve a x^2 + b x + c <= cap in x.
        a = gi[0][0]
        b = 2 * sum(gi[0][j + 1] * xj for j, xj in enumerate(xs_tail))
        c = 0
        for i, xi in enumerate(xs_tail):
            if xi:
                c += gi[i + 1][i + 1] * xi * xi
                for j in range(i + 1, len(xs_tail)):
                    c += 2 * gi[i + 1][j + 1] * xi * xs_tail[j]
        disc = b * b - 4 * a * (c - cap)
        if disc < 0:
            return
        # Conservative integer bracket of the two quadratic roots; each
        # candidate inside it is still checked exactly below.
        root = math.isqrt(disc)
        lo = (-b - root) // (2 * a) - 1
        hi = (-b + root) // (2 * a) + 1
        for x in range(lo, hi + 1):
            q = a * x * x + b * x + c
            if q <= cap:
                counts[q] = counts.get(q, 0) + 1

    def descend(i: int, partial: float, t: list[float], xs: list[int]) -> None:
        if i == 0:
            leaf_range(xs)
            return
        radius = math.sqrt(max(cap_f - partial, 0.0) / Df[i]) + _PAD
        center = -t[i]
        for x in range(math.ceil(center - radius), math.floor(center + radius) + 1):
            u = x + t[i]
            new_partial = partial + Df[i] * u * u
            if new_partial > cap_f:
                continue
            t2 = list(t)
            for j in range(i):
                t2[j] += Lf[i][j] * x
            descend(i - 1, new_partial, t2, [x] + xs)

    descend(n - 1, 0.0, [0.0] * n, [])

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
