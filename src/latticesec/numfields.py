"""Number-field lattice constructions and minimum product distances.

A totally real degree-n field K with ring of integers O embeds into R^n
by listing all real embeddings: x -> (sigma_1(x), ..., sigma_n(x)).
Scaling the trace form by a totally positive alpha twists the embedding
to x -> (sqrt(sigma_j(alpha)) * sigma_j(x))_j, whose Gram matrix on a
basis b_i is the twisted trace form Tr(alpha b_i b_j). Such embeddings
keep the minimum product distance d_p,min = min_x prod_i |x_i| strictly
positive (full diversity), the property that drives fading performance.

Three catalogued rank-4 unit-volume lattices are constructed here, each
by build_lattice from its CATALOGUE record: a stated basis of the ring
of integers with a stated twist, embedded by canonical_embedding.

  lambda1  the ring of integers of the totally real quartic field of
           discriminant 725 (x^4-x^3-3x^2+x+1), twisted by a totally
           positive generator of its codifferent; trace form I, so a
           rotation of Z^4, d_p,min = 1/sqrt(725).
  lambda2  the ring of integers of Q(sqrt(2), sqrt(5)) on the product of
           the bases {1, 1+sqrt(2)} and {1, (1+sqrt(5))/2}, twisted by the
           product of their rotations' twists: a rotation of Z^4, their
           Kronecker product, d_p,min = 1/40. The shipped data file was
           built as that product; it agrees to 1e-15, not bit for bit.
  lambda3  plain canonical embedding of the ring of integers of the
           maximal real subfield of the 15th cyclotomic field
           (x^4-x^3-4x^2+4x+1), volume-normalized; a skewed basis,
           d_p,min = 1/sqrt(1125).

CATALOGUE records each basis's discriminant and exact integer Gram,
which canonical_embedding proves in rational arithmetic before it embeds
and load_lattice checks data files against. Floats appear only in the
embedding values, at roots isolated to 1e-15.

The package's lattice-point enumeration lives here too, so that one
module owns the lex layout of the coefficient box. _box is the box
{-m..m}^k in lex order, and EllipsoidWalker enumerates exactly the
integer vectors of an ellipsoid z G z^T <= cap of an integer form G,
within that box or not, deciding every level in integers, as runs of
the last coordinate under lex-ordered prefixes, each run with its exact
quadratic, in groups of about _GROUP prefixes, each run whole in one
group. The walker serves theta_series_oracle, and the capped sums and
the carves of a generator with an integer form in constellation,
through the one it builds with z_1 walked last; a plain array's sums
scan the box.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from ._numpy import np

from . import ratpoly
from .errors import ConstructionError, DiversityError, DomainError

ROOT_PRECISION = Fraction(1, 10 ** 15)
UNITARITY_TOL = 1e-9
DET_TOL = 1e-12
DPMIN_RTOL = 1e-6
DEFAULT_COEFF_BOUND = 5

# ---------------------------------------------------------------------------
# exact arithmetic in Q[x]/(f)

def _nf_mul(a, b, f: ratpoly.Poly) -> ratpoly.Poly:
    return ratpoly.divmod_poly(ratpoly.mul(ratpoly.make_poly(a),
                                           ratpoly.make_poly(b)), f)[1]

def _mult_matrix(a, f: ratpoly.Poly) -> list[list[Fraction]]:
    """Matrix of multiplication by a on the power basis of Q[x]/(f)."""
    n = ratpoly.degree(f)
    rows = []
    for i in range(n):
        col = _nf_mul(a, [0] * i + [1], f)
        rows.append([col[j] if j < len(col) else Fraction(0) for j in range(n)])
    return rows

def _nf_trace(a, f: ratpoly.Poly) -> Fraction:
    m = _mult_matrix(a, f)
    return sum(m[i][i] for i in range(len(m)))

def _trace_form(elems, f: ratpoly.Poly, alpha=(1,)) -> list[list[Fraction]]:
    """The twisted trace form Tr(alpha a b) over a, b in elems."""
    return [[_nf_trace(_nf_mul(_nf_mul(alpha, a, f), b, f), f) for b in elems]
            for a in elems]

def _is_algebraic_integer(a, f: ratpoly.Poly) -> bool:
    """Whether a's characteristic polynomial on Q[x]/(f) has integer
    coefficients, +-e_k by Newton's identities from the power traces:
    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) Tr(a^i)."""
    e, traces, ak = [Fraction(1)], [None], (1,)
    for k in range(1, ratpoly.degree(f) + 1):
        ak = _nf_mul(ak, a, f)
        traces.append(_nf_trace(ak, f))
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i]
                     for i in range(1, k + 1)) / k)
    return all(x.denominator == 1 for x in e)


def _frac_det(mat: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class NumberFieldSpec:
    """A totally real field given by a monic integer minimal polynomial.

    roots holds all real roots in ascending order, isolated by Sturm
    bisection to 1e-15; a totally real field of degree n has exactly n.
    """

    degree: int
    min_poly: tuple[int, ...]
    roots: tuple[float, ...]

    def __post_init__(self):
        if len(self.roots) != self.degree:
            raise DomainError("number of real roots must equal the degree")
        if list(self.roots) != sorted(set(self.roots)):
            raise DomainError("roots must be distinct and ascending")


def number_field(min_poly) -> NumberFieldSpec:
    """Build a NumberFieldSpec, verifying the field is totally real."""
    coeffs = tuple(int(c) for c in min_poly)
    poly = ratpoly.make_poly(coeffs)
    deg = ratpoly.degree(poly)
    if deg < 1:
        raise DomainError("minimal polynomial must be nonconstant")
    if poly[-1] != 1:
        raise DomainError("minimal polynomial must be monic")
    roots = [float(r) for r in ratpoly.real_roots(poly, ROOT_PRECISION)]
    if len(roots) != deg:
        raise DomainError(
            "field is not totally real: %d real roots for degree %d"
            % (len(roots), deg))
    return NumberFieldSpec(degree=deg, min_poly=coeffs, roots=tuple(roots))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Full-rank square generator; rows are the basis vectors. Its
    entries, its nonzero determinant and its Gram matrix M M^T are
    finite. form is None or the exact integer Gram F of a unit-volume
    lattice, M M^T = F / det(F)^(1/n), as _validated attaches it."""

    entries: np.ndarray
    form: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("generator matrix must be square")
        if not np.isfinite(m).all():
            raise DomainError("generator matrix entries must be finite")
        with np.errstate(over="ignore"):
            det, gram = np.linalg.det(m), m @ m.T
        if not (np.isfinite(det) and np.isfinite(gram).all()):
            raise DomainError("generator matrix's determinant or Gram matrix "
                              "M M^T overflows")
        if det == 0.0:
            raise DomainError("generator matrix must have nonzero determinant")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    @cached_property
    def walker(self) -> EllipsoidWalker:
        """The walker of form, with the coordinates taken in the order
        z_2, ..., z_n, z_1: its prefixes are rest vectors, each with its
        run of z_1. Built once per generator; it reads the upper triangle
        of the unturned form."""
        if self.form is None:
            raise DomainError("a generator without an integer form has no walker")
        g, order = self.form, [*range(1, self.n), 0]
        return EllipsoidWalker([[g[min(i, j)][max(i, j)] for j in order] for i in order])


@dataclass(frozen=True)
class LatticeSpec:
    """A catalogued unit-volume lattice: its name in CATALOGUE and a
    generator whose d_p,min is the record's dpmin within DPMIN_RTOL."""

    name: str
    generator: GeneratorMatrix

    def __post_init__(self):
        dp = min_product_distance(self.generator)
        ref = _record(self.name).dpmin
        if abs(dp - ref) > DPMIN_RTOL * ref:
            raise ConstructionError(
                "%s: computed d_p,min %.12g deviates from reference %.12g "
                "beyond 1e-6 relative" % (self.name, dp, ref))


# ---------------------------------------------------------------------------
# operations

def canonical_embedding(field_spec: NumberFieldSpec, basis, alpha=(1,),
                        gram=None, disc=None) -> GeneratorMatrix:
    """Rows (sqrt(sigma_j(alpha)) * sigma_j(b_i))_j for basis elements b_i.

    Basis elements and the twist alpha are polynomial coefficient
    sequences in the field generator delta (low degree first); sigma_j
    evaluates at the j-th real root in ascending order, and alpha must
    be totally positive. The rows' Gram matrix is the twisted trace form
    Tr(alpha b_i b_j). Given gram, it is proved exactly first, else
    ConstructionError: each b_i has an integer characteristic polynomial,
    det Tr(b_i b_j) equals disc (default: that of Z[delta]; the field's
    proves the b_i span its integers), and Tr(alpha b_i b_j) equals gram.
    """
    n = field_spec.degree
    coeffs = [[Fraction(c) for c in b] + [Fraction(0)] * (n - len(b)) for b in basis]
    if len(coeffs) != n or any(len(b) != n for b in coeffs):
        raise DomainError("need exactly n basis elements of degree below n")
    if _frac_det(coeffs) == 0:
        raise DomainError(
            "basis elements are linearly dependent over the rationals")
    roots = np.array(field_spec.roots)
    twist = np.polyval([float(c) for c in reversed(alpha)], roots)
    if not twist.min() > 0:
        raise DomainError("twist element is not totally positive")
    if gram is not None:
        f = ratpoly.make_poly(field_spec.min_poly)
        if not all(_is_algebraic_integer(b, f) for b in coeffs):
            raise ConstructionError("basis elements are not all algebraic integers")
        if disc is None:
            disc = _frac_det(_trace_form([[0] * i + [1] for i in range(n)], f))
        if _frac_det(_trace_form(coeffs, f)) != disc:
            raise ConstructionError(
                "basis does not span a lattice of discriminant %s" % disc)
        trace = _trace_form(coeffs, f, alpha)
        if trace != [[Fraction(x) for x in row] for row in gram]:
            raise ConstructionError(
                "trace form is %s, not the stated %s"
                % ([[str(x) for x in row] for row in trace], gram))
    return GeneratorMatrix(np.sqrt(twist) * np.array(
        [np.polyval([float(c) for c in reversed(b)], roots) for b in coeffs]))


def _box(k: int, m: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 (by default all) of {-m..m}^k in lexicographic
    order.

    Row i holds the base-(2m+1) digits of i, most significant first, less
    m. So row N-1-i is the negation of row i and the zero vector is the
    middle row. The entries are small integers stored as float64, which
    is exact, column-major, so each coordinate is a contiguous column.
    """
    return _box_rows(k, m, np.arange(start, (2 * m + 1) ** k if stop is None else stop))


def _box_rows(k: int, m: int, rows: np.ndarray) -> np.ndarray:
    """The rows of {-m..m}^k with the given lex indices, as _box has them.
    The int64 array rows is overwritten."""
    side = 2 * m + 1
    out = np.empty((len(rows), k), order="F")
    digit = np.empty_like(rows)
    for j in range(k - 1, -1, -1):
        np.divmod(rows, side, out=(rows, digit))
        np.subtract(digit, m, out=out[:, j])
    return out


# Nodes per group that a level of the walk expands at once: a group's
# arrays, a few per coordinate, stay within a few hundred KB. The last
# level's groups are the chunks in which every caller takes the walk.
_GROUP = 1024


class EllipsoidWalker:
    """Integer vectors z with z G z^T <= cap, for an integer positive
    definite G, as runs of their last coordinate under each prefix
    z_1..z_{n-1}.

    This is Fincke-Pohst enumeration (Math. Comp. 44, 1985), vectorised
    level by level, with every level decided in integers. Let Delta_k be
    the determinant of G's block on z_k..z_n (Delta_{n+1} = 1, Delta_1 =
    det G) and S_k the Schur complement of the block on z_{k+1}..z_n, a
    form in z_1..z_k. Its entries times Delta_{k+1} are minors of G, so
    the level form W_k = Delta_{k+1} S_k is integral (W_n = G), and so is
    P_k = z W_k z^T over z_1..z_k. The least value of z G z^T over real
    z_{k+1}..z_n is P_k / Delta_{k+1}, so a vector of the ellipsoid has
    P_k <= Delta_{k+1} F at every level, F = floor(cap); at the last level
    that test is z G z^T <= cap itself. Completing the square in z_k,

        Delta_k P_k = Delta_{k+1} P_{k-1} + (Delta_k z_k + b_k)^2,

    with b_k = sum_{j<k} (W_k)_jk z_j. So under a prefix z_1..z_{k-1}
    with room R_k = Delta_{k+1} (Delta_k F - P_{k-1}), the z_k that pass
    are one run, |Delta_k z_k + b_k| <= isqrt(R_k), whose ends are floor
    divisions, and a child's room is
    R_{k+1} = Delta_{k+2} ((R_k - (Delta_k z_k + b_k)^2) / Delta_k), the
    division exact. Each node carries its room and its b_l for the levels
    l still to come; no float decides a run. A last-level run comes with
    its exact quadratic: z_n = t has z G z^T = c + t (2 b_n + G_nn t),
    c = (G_nn F - R_n + b_n^2) / G_nn.

    The walk's values, and those of the quadratics, are at most 3 X^2,
    with X the largest over k of isqrt(Delta_k Delta_{k+1} F) + Delta_k
    plus a bound on |b_k| from the coordinates' own bounds. nodes takes
    them as int64 where X < 2^30, else as Python ints, which no float
    ever holds: the package's one choice between the two.

    With a box bound m every run is clipped to -m..m. Each level expands
    its runs in ascending order under ascending prefixes, so the vectors
    come out in lex order. nodes, the walker's one output, streams them:
    a level expands its nodes in groups whose runs start within _GROUP
    children, so no level holds more than _GROUP nodes and one run more,
    and each group of the last level comes out as it is, its runs whole.

    Only the upper triangle of gram is read. Nothing here depends on a
    box bound: the box's largest value of the form is m^2 corner.
    """

    def __init__(self, gram):
        gram = np.asarray(gram).tolist()  # a Fraction of an np.int64 wraps
        n = len(gram)
        s = [[Fraction(gram[min(i, j)][max(i, j)]) for j in range(n)]
             for i in range(n)]
        if any(x.denominator != 1 for row in s for x in row):
            raise DomainError("gram matrix must be integral")
        self.gram = [[int(x) for x in row] for row in s]
        # delta[k] = Delta_(k+1) and w[k][j] = (W_(k+1))_(j+1)(k+1), 0-based.
        self.delta, self.w = [1] * (n + 1), [[]] * n
        for k in reversed(range(n)):
            d = s[k][k]
            if d <= 0:
                raise DomainError("gram matrix is not positive definite")
            self.delta[k] = int(self.delta[k + 1] * d)
            self.w[k] = [int(self.delta[k + 1] * s[j][k]) for j in range(k)]
            for i in range(k):
                for j in range(k):
                    s[i][j] -= s[i][k] * s[k][j] / d
        self.det = self.delta[0]

    @cached_property
    def corner(self) -> int:
        """The form's largest value over {-1, 1}^n. A positive definite form
        is convex, so its maximum over a box lies at a corner."""
        g, n = self.gram, len(self.gram)
        return max(sum(g[i][j] * c[i] * c[j] for i in range(n) for j in range(n))
                   for c in itertools.product((-1, 1), repeat=n))

    def nodes(self, cap, m: int | None = None):
        """The vectors in ascending lex order, as groups (prefix, lo, runs,
        c, b): row i of the int64 array prefix holds z_1..z_{n-1}, the
        vectors under it are z_n = lo[i]..lo[i]+runs[i]-1, and z_n = t has
        z G z^T = c[i] + t (2 b[i] + G_nn t). lo and runs are int64 (a
        run that passes int64 raises DomainError); c and b are int64, or
        Python ints where the walk's values need them.
        Every group and every run is nonempty, and the prefixes ascend
        strictly across groups, so each run comes whole. With a box bound
        m a group holds at most _GROUP + 2m prefixes. For n = 1 the
        prefixes are empty rows."""
        cap = math.floor(cap)
        if cap < 0:
            return
        delta, n = self.delta, len(self.w)
        x, bound = 0, []  # X, and bound[k] >= |z_k| in the walk
        for k in range(n):
            r = math.isqrt(delta[k] * delta[k + 1] * cap)
            b = sum(abs(w) * z for w, z in zip(self.w[k], bound))
            bound.append((r + b) // delta[k] if m is None else min((r + b) // delta[k], m))
            x = max(x, r + b + delta[k])
        if m is not None:
            # Every run lies within bound, so clipping to it loses nothing,
            # and it is below X, so an int64 walk can hold it.
            m = max(bound)
        dtype = np.int64 if x < 2 ** 30 else object
        room = np.array([delta[0] * delta[1] * cap], dtype=dtype)
        yield from self._level(0, [], room, [np.zeros(1, dtype=dtype)] * n, cap, m)

    def _level(self, k: int, cols: list, room: np.ndarray, b: list, cap: int,
               m: int | None):
        """(prefix, lo, runs, c, b) of the nonempty last-level runs under
        nodes z_1..z_k (the columns cols), each with its room and its b[l],
        l >= k, a nonempty group of the last level at a time."""
        delta, n = self.delta, len(self.w)
        s = _isqrt(room)
        lo, hi = -((b[k] + s) // delta[k]), (s - b[k]) // delta[k]
        if m is not None:
            lo, hi = np.maximum(lo, -m), np.minimum(hi, m)
        try:
            runs = np.maximum(hi - lo + 1, 0).astype(np.int64)
            lo = lo.astype(np.int64)
        except OverflowError:
            raise DomainError("the ball's coordinates pass int64") from None
        if k == n - 1:
            live = runs > 0
            if live.any():
                prefix = np.empty((int(np.count_nonzero(live)), k), dtype=np.int64, order="F")
                for j, x in enumerate(cols):
                    prefix[:, j] = x[live]
                g, bk = delta[k], b[k][live]
                yield prefix, lo[live], runs[live], (g * cap - room[live] + bk * bk) // g, bk
            return
        # Parents whose runs start in the same _GROUP children go together.
        group = (np.cumsum(runs) - runs) // _GROUP
        bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(runs)]
        for i, j in zip(bounds, bounds[1:]):
            parent, zk = _expand(lo[i:j], runs[i:j])
            parent += i
            t = zk.astype(room.dtype, copy=False)
            e = delta[k] * t + b[k][parent]
            kids = [x[parent] for x in cols] + [zk]
            rooms = delta[k + 2] * ((room[parent] - e * e) // delta[k])
            bs = [None] * (k + 1) + [b[l][parent] + self.w[l][k] * t for l in range(k + 1, n)]
            yield from self._level(k + 1, kids, rooms, bs, cap, m)


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of each nonnegative integer v of x: by math.isqrt for
    Python ints; for int64 (here below 2^62) the float root, which is off
    by at most one, moved to it by exact tests."""
    if x.dtype == object:
        return np.array([math.isqrt(v) for v in x], dtype=object)
    s = np.sqrt(x).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _expand(lo: np.ndarray, runs: np.ndarray, dtype="int64"):
    """(parent, value) of each element of the runs lo..lo+runs-1, the
    values as dtype (int64, float64, where they are small integers, or
    object for Python ints)."""
    return np.repeat(np.arange(len(runs)), runs), _values(lo, runs, dtype)


def _values(lo: np.ndarray, runs: np.ndarray, dtype="int64") -> np.ndarray:
    """The values of _expand alone, with no parent index."""
    starts = np.cumsum(runs) - runs
    return np.repeat((lo - starts).astype(dtype, copy=False), runs) + np.arange(runs.sum(), dtype=dtype)


def min_product_distance(m: GeneratorMatrix) -> float:
    """min over nonzero z in {-5..5}^n of prod_i |(zM)_i|.

    This is a truncated search: for the catalogued lattices the minimum
    is attained by units / short algebraic integers well inside
    DEFAULT_COEFF_BOUND = 5. An exact zero product on a nonzero vector
    means the lattice is not fully diverse and raises DiversityError.
    """
    z = _box(m.n, DEFAULT_COEFF_BOUND)
    z = z[np.any(z != 0, axis=1)]
    prods = np.abs(np.prod(z @ m.entries, axis=1))
    idx = int(np.argmin(prods))
    if prods[idx] == 0.0:
        raise DiversityError(z[idx], int(np.argmin(np.abs(z[idx] @ m.entries))),
                             0.0)
    return float(prods[idx])


# ---------------------------------------------------------------------------
# the three catalogued lattices

class CataloguedLattice(NamedTuple):
    """A twisted embedding: delta's minimal polynomial, the discriminant D
    of the basis (d_p,min = D^(-1/2)), basis and twist as coefficients in
    delta, their exact integer Gram Tr(alpha b_i b_j), and a provenance.
    The lattice's own Gram, at unit volume, is that Gram scaled to det 1."""

    min_poly: tuple[int, ...]
    disc: int
    basis: tuple[tuple, ...]
    alpha: tuple
    gram: tuple[tuple[int, ...], ...]
    provenance: str

    @property
    def dpmin(self) -> float:
        return 1.0 / math.sqrt(self.disc)

    def unit_gram(self) -> np.ndarray:
        det = _frac_det(self.gram)
        return np.array(self.gram, dtype=float) / float(det) ** (1.0 / len(self.gram))


_I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

CATALOGUE = {
    # The twist u/f'(delta), for the unit u = delta^3 - delta^2 - 2 delta,
    # generates the codifferent of Z[delta]; on this basis its form is I.
    "lambda1": CataloguedLattice(
        (1, 1, -3, -1, 1), 725,
        ((0, 1, 0, 0), (1, -2, -1, 1), (1, 0, -1, 0), (1, 0, 0, 0)),
        (Fraction(47, 145), Fraction(34, 145), Fraction(2, 145),
         Fraction(-13, 145)),
        _I4,
        "twisted canonical embedding of the ring of integers of the "
        "totally real quartic field x^4-x^3-3x^2+x+1 (discriminant 725), "
        "rotated onto an orthonormal basis"),
    # delta = sqrt(2) + (1+sqrt(5))/2; Z[delta] has index 3 in this ring.
    "lambda2": CataloguedLattice(
        (-1, 6, -5, -2, 1), 40 ** 2,
        ((1, 0, 0, 0),
         (Fraction(7, 3), Fraction(-10, 3), -1, Fraction(2, 3)),
         (Fraction(-4, 3), Fraction(13, 3), 1, Fraction(-2, 3)),
         (Fraction(-1, 3), Fraction(-5, 3), 0, Fraction(1, 3))),
        (Fraction(17, 60), Fraction(-7, 30), 0, Fraction(1, 60)),
        _I4,
        "twisted canonical embedding of the ring of integers of "
        "Q(sqrt(2), sqrt(5)) on the basis {1, 1+sqrt(2)} x {1, (1+sqrt(5))/2} "
        "(twist (1/2-sqrt(2)/4)(3-(1+sqrt(5))/2)/5), the Kronecker product "
        "of the twisted embeddings of Z[sqrt(2)] and of the golden ring"),
    "lambda3": CataloguedLattice(
        (1, 4, -4, -1, 1), 1125, ((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1)), (1,),
        ((4, 1, 9, 1), (1, 9, 1, 29), (9, 1, 29, -4), (1, 29, -4, 99)),
        "canonical embedding of the ring of integers of the maximal real "
        "subfield of the 15th cyclotomic field (x^4-x^3-4x^2+4x+1, "
        "discriminant 1125), volume normalized; intentionally skewed"),
}

LATTICE_NAMES = tuple(CATALOGUE)


def _validated(name: str, m: GeneratorMatrix) -> LatticeSpec:
    """The catalogued lattice name with generator m and its exact form,
    after checking unit volume and that M M^T is the catalogued Gram
    scaled to determinant 1 within UNITARITY_TOL (for lambda1 and
    lambda2, orthogonality).
    LatticeSpec's constructor enforces the d_p,min invariant."""
    want = CATALOGUE[name].unit_gram()
    if m.n != len(want):
        raise ConstructionError("%s: generator is %dx%d, not %dx%d"
                                % (name, m.n, m.n, len(want), len(want)))
    if not abs(abs(m.det) - 1.0) <= DET_TOL:
        raise ConstructionError(
            "%s: |det| = %.17g is not 1 within 1e-12" % (name, abs(m.det)))
    defect = float(np.max(np.abs(m.entries @ m.entries.T - want)))
    if not defect <= UNITARITY_TOL:
        raise ConstructionError(
            "%s: Gram defect %.3e exceeds 1e-9" % (name, defect))
    return LatticeSpec(name, GeneratorMatrix(m.entries, CATALOGUE[name].gram))


def _record(name: str) -> CataloguedLattice:
    if name not in CATALOGUE:
        raise DomainError("unknown lattice %r; choose from %s"
                          % (name, "/".join(LATTICE_NAMES)))
    return CATALOGUE[name]


def build_lattice(name: str) -> LatticeSpec:
    """The catalogued lattice `name`: its CATALOGUE record embedded and
    proved by canonical_embedding, then scaled to unit volume only if the
    record's Gram determinant is not 1 (lambda3)."""
    r = _record(name)
    m = canonical_embedding(number_field(r.min_poly), r.basis, r.alpha,
                            gram=r.gram, disc=r.disc)
    if _frac_det(r.gram) != 1:
        m = GeneratorMatrix(m.entries / abs(m.det) ** (1.0 / m.n))
    return _validated(name, m)


# ---------------------------------------------------------------------------
# versioned data files

def default_data_dir() -> Path:
    env = os.environ.get("LATTICESEC_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


def load_lattice(name: str) -> LatticeSpec:
    """Load a shipped lattice; LATTICESEC_DATA overrides the data dir.

    The file's name, dpmin_ref and min_poly must be the catalogue's,
    and build_lattice's generator checks (unit volume, and the catalogued
    Gram) and the LatticeSpec d_p,min invariant are re-validated on
    load, so a corrupted data file cannot propagate. A missing file raises
    DomainError; a file that is not such a record, ConstructionError.
    """
    record = _record(name)
    path = default_data_dir() / ("%s.json" % name)
    if not path.exists():
        raise DomainError("lattice data file missing: %s" % path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
        m = GeneratorMatrix(np.array(doc["generator"], dtype=float))
        stated = (doc["name"], float(doc["dpmin_ref"]), doc.get("min_poly"))
    except (KeyError, TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise ConstructionError("%s: malformed lattice data file (%s: %s)"
                                % (path, type(exc).__name__, exc)) from None
    if stated != (name, record.dpmin, list(record.min_poly)):
        raise ConstructionError(
            "%s: name, dpmin_ref or min_poly is not the catalogued one" % path)
    return _validated(name, m)
