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
{-m..m}^k in lex order, and EllipsoidWalker enumerates the integer
vectors of an ellipsoid z G z^T <= cap, within that box or not, one
leading coefficient at a time. The walker serves the capped sums and
the carve in constellation, and theta_series_oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
    """Full-rank square generator; rows are the basis vectors."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("generator matrix must be square")
        if not np.isfinite(m).all():
            raise DomainError("generator matrix entries must be finite")
        if abs(np.linalg.det(m)) == 0.0:
            raise DomainError("generator matrix must have nonzero determinant")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))


@dataclass(frozen=True)
class LatticeSpec:
    """A named unit-volume lattice with its reference product distance."""

    name: str
    generator: GeneratorMatrix
    reference_dpmin: float
    provenance: str

    def __post_init__(self):
        dp = min_product_distance(self.generator)
        ref = float(self.reference_dpmin)
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


def normalize_unit_volume(m: GeneratorMatrix) -> GeneratorMatrix:
    """Scale so |det| = 1 (within 1e-12)."""
    out = GeneratorMatrix(m.entries / abs(m.det) ** (1.0 / m.n))
    if abs(abs(out.det) - 1.0) > DET_TOL:
        raise ConstructionError("normalization failed to reach unit volume")
    return out


def _box(k: int, m: int) -> np.ndarray:
    """{-m..m}^k as rows in lexicographic order.

    Row N-1-i is the negation of row i and the zero vector is the middle
    row. The entries are small integers stored as float64, which is
    exact and lets the box enter a matmul without a cast copy.
    """
    side = 2 * m + 1
    out = np.empty((side,) * k + (k,))
    rng = np.arange(-m, m + 1, dtype=float)
    for j in range(k):
        out[..., j] = rng.reshape((1,) * j + (side,) + (1,) * (k - j - 1))
    return out.reshape(side ** k, k)


class EllipsoidWalker:
    """Integer vectors z with z G z^T <= cap, one leading coefficient at a time.

    This is Fincke-Pohst enumeration (Math. Comp. 44, 1985), vectorised
    level by level. Completing the square in z_n, then in z_{n-1}, and
    so on, writes the form as

        z G z^T = sum_k D_k (z_k + sum_{j<k} U_jk z_j)^2,

    so once z_1..z_{k-1} are fixed, the z_k that keep the partial sum at
    or below the cap form one run around -sum_{j<k} U_jk z_j. D and U
    are computed exactly in Fraction from the Gram entries and rounded
    once to float. With a box bound m every run is clipped to -m..m.
    Each level expands its runs in ascending order under ascending
    prefixes, so the candidates come out in lex order. vectors, the
    walker's one output, gives the candidates of one slice z1, or of
    every slice at once, as float64 rows like those of _box.

    The candidates of slice z1 hold every z (in the box, if m is given)
    with z G z^T <= cap, and, for G = M M^T, every word whose float norm
    ||zM||^2 is <= cap. Such a z has |z_j| <= sqrt(cap (G^-1)_jj), and
    |U_jk| <= sqrt(G_jj / D_k). So with kappa = sum_j sqrt(G_jj (G^-1)_jj),
    which is at least n, the float walk's partial norms are off by a few
    n units of roundoff of kappa^2 cap, and its centres and run ends by
    a few n units of roundoff of kappa sqrt(cap / D_k). A float norm ||zM||^2, and the exact form of
    a float product M M^T, are off from the exact ||zM||^2 by a few n
    units of roundoff of (sum_j |z_j| sqrt(G_jj))^2 <= kappa^2 ||zM||^2.
    The walker raises the cap by 2^-30 kappa^2 of itself. That adds as
    much room to every partial norm and widens every run by at least
    2^-32 kappa^2 sqrt(cap / D_k), over 10^5 times each of those errors.
    Every candidate lies within the raised cap, and callers make the
    final keep decision themselves. For a badly conditioned G, where
    2^-30 kappa^2 is not small, the walk visits more vectors than it
    needs, but it drops none.

    Only the upper triangle of gram is read, since a float M @ M.T need
    not be symmetric bit for bit.
    """

    def __init__(self, gram, m: int | None = None):
        gram = np.asarray(gram).tolist()  # a Fraction of an np.int64 wraps
        n = len(gram)
        g = [[Fraction(gram[min(i, j)][max(i, j)]) for j in range(n)]
             for i in range(n)]
        s = [row[:] for row in g]
        d = [Fraction(0)] * n
        u = [[Fraction(0)] * n for _ in range(n)]
        for k in reversed(range(n)):
            d[k] = s[k][k]
            if d[k] <= 0:
                raise DomainError("gram matrix is not positive definite")
            for i in range(k):
                u[i][k] = s[i][k] / d[k]
                for j in range(k):
                    s[i][j] -= s[i][k] * s[k][j] / d[k]
        self.u = np.array([[float(x) for x in row] for row in u])
        # G = V^T diag(d) V, where V is unit lower triangular with
        # V_kj = U_jk, so (G^-1)_jj = sum_k (V^-1)_jk^2 / d_k.
        w = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for c in range(n):
            for k in range(c + 1, n):
                w[k][c] = -sum(u[i][k] * w[i][c] for i in range(c, k))
        kappa = sum(math.sqrt(g[j][j] * sum(w[j][k] ** 2 / d[k] for k in range(j + 1)))
                    for j in range(n))
        self.widen = 1.0 + 2.0 ** -30 * kappa * kappa
        self.d = [float(x) for x in d]
        self.m = m
        self.box_top = math.inf
        if m is not None:
            # A positive definite form is convex: its maximum over the box
            # lies at a corner.
            c = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
            gf = np.array([[float(x) for x in row] for row in g])
            self.box_top = m * m * float(np.einsum("ij,jk,ik->i", c, gf, c).max())

    def leading(self, cap: float) -> range:
        """The leading coefficients z1 whose slices can hold candidates,
        ignoring the box."""
        b = math.floor(math.sqrt(cap * self.widen / self.d[0]))
        return range(-b, b + 1)

    def vectors(self, z1: int | None, cap: float) -> np.ndarray:
        """The candidates (z_1, ..., z_n) of slice z1, or of every slice if
        z1 is None, as rows in ascending lex order. The entries are small
        integers stored as float64, exact, as _box stores them."""
        n, d, u, m = len(self.d), self.d, self.u, self.m
        room = np.array([cap * self.widen])
        # c[j] = -sum_{i<k} U_ij z_i over each prefix, the centre of z_j.
        c = [np.zeros(1)] * n
        cols, start = [], 0
        if z1 is not None:  # level 0 is the run of z1 alone, or empty
            start, lo = 1, np.array([z1])
            runs = np.array([int(d[0] * z1 * z1 <= room[0]
                                 and (m is None or abs(z1) <= m))])
        for k in range(start, n):
            if k:
                parent, zk = _expand(lo, runs)
                cols = [x[parent] for x in cols] + [zk]
                y = zk - c[k - 1][parent]
                room = room[parent] - d[k - 1] * y * y
                c[k:] = [c[j][parent] - zk * u[k - 1, j] for j in range(k, n)]
            half = np.sqrt(np.maximum(room, 0.0) / d[k])
            lo, hi = np.ceil(c[k] - half), np.floor(c[k] + half)
            if m is not None:
                np.maximum(lo, -m, out=lo)
                np.minimum(hi, m, out=hi)
            runs = np.maximum(hi - lo + 1, 0).astype(np.intp)
            lo = lo.astype(np.int64)
        # cols holds the prefixes (z_1, ..., z_{n-1}) column by column; each
        # is followed by each z_n of its run lo..lo+runs-1.
        out = np.empty((int(runs.sum()), n))
        for j, col in enumerate(cols):
            out[:, j] = np.repeat(col, runs)
        out[:, -1] = _expand(lo, runs)[1]
        return out


def _expand(lo: np.ndarray, runs: np.ndarray):
    """(parent, value) of each element of the runs lo..lo+runs-1."""
    starts = np.cumsum(runs) - runs
    return (np.repeat(np.arange(len(runs)), runs),
            np.repeat(lo - starts, runs) + np.arange(runs.sum()))


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


def _validated(name: str, m: GeneratorMatrix, provenance: str) -> LatticeSpec:
    """The catalogued lattice name with generator m, after checking unit
    volume and that M M^T is the catalogued Gram scaled to determinant 1
    within UNITARITY_TOL (for lambda1 and lambda2, orthogonality).
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
    return LatticeSpec(name=name, generator=m,
                       reference_dpmin=CATALOGUE[name].dpmin,
                       provenance=provenance)


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
        m = normalize_unit_volume(m)
    return _validated(name, m, r.provenance)


# ---------------------------------------------------------------------------
# versioned data files

def default_data_dir() -> Path:
    env = os.environ.get("LATTICESEC_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


def _f17(x) -> str:
    # 17 significant digits: enough to reproduce any double exactly.
    return "%.17g" % float(x)


def save_lattice(spec: LatticeSpec, data_dir=None) -> Path:
    """Write <data_dir>/<name>.json; matrix entries carry 17 significant
    digits so the stored generator is bit-identical on reload."""
    base = Path(data_dir) if data_dir is not None else default_data_dir()
    base.mkdir(parents=True, exist_ok=True)
    path = base / ("%s.json" % spec.name)
    rows = ",\n".join(
        "  [%s]" % ", ".join(_f17(x) for x in row)
        for row in spec.generator.entries)
    text = "\n".join([
        "{",
        ' "dpmin_ref": %s,' % _f17(spec.reference_dpmin),
        ' "generator": [',
        rows,
        " ],",
        ' "min_poly": %s,' % json.dumps(list(CATALOGUE[spec.name].min_poly)),
        ' "n": %d,' % spec.generator.n,
        ' "name": %s,' % json.dumps(spec.name),
        ' "provenance": %s' % json.dumps(spec.provenance),
        "}",
        "",
    ])
    path.write_text(text)
    return path


def load_lattice(name: str, data_dir=None) -> LatticeSpec:
    """Load a shipped lattice; LATTICESEC_DATA overrides the data dir.

    The file's name, dpmin_ref and min_poly must be the catalogue's,
    and build_lattice's generator checks (unit volume, and the catalogued
    Gram) and the LatticeSpec d_p,min invariant are re-validated on
    load, so a corrupted data file cannot propagate. A missing file raises
    DomainError; a file that is not such a record, ConstructionError.
    """
    record = _record(name)
    base = Path(data_dir) if data_dir is not None else default_data_dir()
    path = base / ("%s.json" % name)
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
    return _validated(name, m, doc.get("provenance", "data file"))
