"""Exact norm-form oracle for the confusion sums of lambda1..3.

Every catalogued lattice is an embedded ring of integers, so the
product of a codeword's coordinates is a constant times the field norm
of an algebraic integer beta_z, and its squared length is an integer
quadratic form q(z) in the coefficient vector z:

  lambda1  beta_z = sum z_i v_i over the norm-one trace-form basis v_i
           of Z[delta], delta^4 - delta^3 - 3 delta^2 + delta + 1 = 0;
           prod |x_i| = |N(beta_z)| / 725^(1/2), q = z z^T
  lambda2  beta_z = p + q sqrt(2) with p, q in Z[(1+sqrt(5))/2] read
           off the Kronecker layout; N(beta_z) = N_Q(sqrt 5)(p^2 - 2 q^2),
           prod |x_i| = |N(beta_z)| / 40, q = z z^T
  lambda3  beta_z = sum z_i delta^i, delta = 2cos(2 pi/15);
           prod |x_i| = |N(beta_z)| / 1125^(1/2),
           ||x||^2 = q(z) * 1125^(-1/4) with q the integer trace form

Hence S = D^(3/2) * sum |N(beta_z)|^-3 with D = 725, 40^2 or 1125.
Norms are integer determinants of multiplication matrices,
energies are integer quadratic forms, the sum is exact over Fractions
grouped by |N|, and ball membership and carve order are decided on
integers. The only float steps are the final scaling by D^(3/2) and
the one rounding of each energy statistic (q * 1125^(-1/4), rounded
from an integer fourth root). Nothing here reads the program's
generator matrices except anchor_defect, which checks that both
describe the same lattice in the same coefficient coordinates. nf_norm,
the Fraction field norm that the det4 norms are checked against,
reuses the program's exact multiplication matrices and determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from latticesec import ratpoly
from latticesec.numfields import _frac_det, _mult_matrix

# Largest |entry| for which a 4x4 integer determinant (24 products of
# four entries) cannot overflow int64.
_INT64_ENTRY_LIMIT = int(((2**63 - 1) // 24) ** 0.25)


def _companion_powers(min_poly) -> np.ndarray:
    """Matrices of multiplication by delta^0..delta^3 on the power basis.

    Row-vector convention: the coefficients of beta * delta^k are
    c @ C^k for beta = sum c_i delta^i; min_poly is monic, low degree
    first.
    """
    n = len(min_poly) - 1
    comp = np.zeros((n, n), dtype=np.int64)
    comp[np.arange(n - 1), np.arange(1, n)] = 1
    comp[n - 1] = [-c for c in min_poly[:n]]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ comp)
    return np.stack(powers)


def det4(a: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of int64 4x4 matrices.

    Laplace expansion along the first two rows: sum over column pairs
    of signed products of complementary 2x2 minors.
    """
    if a.size and int(np.abs(a).max()) > _INT64_ENTRY_LIMIT:
        raise OverflowError("matrix entries too large for exact int64 det")

    def minor(r, c0, c1):
        return a[:, r, c0] * a[:, r + 1, c1] - a[:, r, c1] * a[:, r + 1, c0]

    total = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = (c for c in range(4) if c not in (i, j))
            total += (-1) ** (1 + i + j) * minor(0, i, j) * minor(2, k, l)
    return total


def nf_norm(a, f: ratpoly.Poly) -> Fraction:
    """Exact norm of a = sum a_i delta^i in Q[x]/(f): the determinant of
    multiplication by a."""
    return _frac_det(_mult_matrix(a, f))


def _power_basis_norms(min_poly, basis):
    mult = _companion_powers(min_poly)
    basis = np.asarray(basis, dtype=np.int64)

    def norms(z: np.ndarray) -> np.ndarray:
        return det4(np.einsum("ki,irc->krc", z @ basis, mult))
    return norms


def _lambda2_norms(z: np.ndarray) -> np.ndarray:
    """N(beta_z) over Q(sqrt 2, sqrt 5) for the Kronecker coordinates.

    Row 2i + l of the generator pairs basis element a_i of Z[sqrt 2]
    ({1, 1 + sqrt 2}) with b_l of Z[theta] ({1, theta}), so beta_z =
    gamma_0 + gamma_1 (1 + sqrt 2) with gamma_i = z_2i + z_2i+1 theta.
    """
    g0 = z[:, 0:2]
    g1 = z[:, 2:4]
    a, b = (g0 + g1).T           # p = gamma_0 + gamma_1 = a + b theta
    c, d = g1.T                  # q = gamma_1 = c + d theta
    # p^2 - 2 q^2 = e + f theta, using theta^2 = theta + 1
    e = a * a + b * b - 2 * (c * c + d * d)
    f = 2 * a * b + b * b - 2 * (2 * c * d + d * d)
    return e * e + e * f - f * f


@dataclass(frozen=True)
class NormForm:
    """Exact description of one catalogued lattice."""

    norms: Callable[[np.ndarray], np.ndarray]  # (k, 4) z -> int64 N(beta_z)
    gram: np.ndarray         # q(z) = z gram z^T, integer
    norm_disc: int           # prod_i |x_i| = |N(beta_z)| / norm_disc^(1/2)
    energy_disc: int         # ||x||^2 = q(z) * energy_disc^(-1/4)

    def energy_cap(self, p_lim) -> int:
        """Largest integer q with q * energy_disc^(-1/4) <= p_lim, i.e.
        q^4 <= energy_disc p_lim^4 on the exact rational value of p_lim:
        the fourth root of the integer part of the right side."""
        bound = self.energy_disc * Fraction(p_lim) ** 4
        return math.isqrt(math.isqrt(bound.numerator // bound.denominator))


NORM_FORMS = {
    "lambda1": NormForm(
        norms=_power_basis_norms(
            (1, 1, -3, -1, 1),
            # the basis of lambda1's record in numfields.CATALOGUE
            ((0, 1, 0, 0), (1, -2, -1, 1), (1, 0, -1, 0), (1, 0, 0, 0))),
        gram=np.eye(4, dtype=np.int64),
        norm_disc=725, energy_disc=1),
    "lambda2": NormForm(
        norms=_lambda2_norms, gram=np.eye(4, dtype=np.int64),
        norm_disc=40**2, energy_disc=1),
    "lambda3": NormForm(
        norms=_power_basis_norms((1, 4, -4, -1, 1), np.eye(4, dtype=np.int64)),
        gram=np.array([[4, 1, 9, 1], [1, 9, 1, 29], [9, 1, 29, -4],
                       [1, 29, -4, 99]], dtype=np.int64),
        norm_disc=1125, energy_disc=1125),
}


def rounded_energy(num: int, den: int, energy_disc: int) -> float:
    """The float nearest num / den * energy_disc^(-1/4), for integers
    num >= 0 and den, energy_disc > 0."""
    if energy_disc == 1 or num == 0:
        return float(Fraction(num, den))
    # energy_disc is then no fourth power (1125 = 3^2 5^3), so the value
    # v is irrational and lies strictly between N / 2^k and (N + 1) / 2^k,
    # N = floor(v 2^k), the integer fourth root of
    # num^4 2^(4k) / (den^4 energy_disc). This k makes N at least 2^55, so
    # every midpoint of two floats near v 2^k is an integer, and v rounds
    # as (N + 1/2) / 2^k does.
    assert round(energy_disc ** 0.25) ** 4 != energy_disc
    k = 55 + den.bit_length() + energy_disc.bit_length()
    root = math.isqrt(math.isqrt((num ** 4 << 4 * k) // (den ** 4 * energy_disc)))
    return float(Fraction(2 * root + 1, 1 << k + 1))


def _box(m: int) -> np.ndarray:
    """{-m..m}^4 in lexicographic order."""
    rng = np.arange(-m, m + 1, dtype=np.int64)
    return np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"),
                    axis=-1).reshape(-1, 4)


def _energies(form: NormForm, z: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ij,kj->k", z, form.gram, z)


def inverse_cube_sum(norms: np.ndarray) -> Fraction:
    """sum |N|^-3 exactly: one Fraction per distinct |N|, added pairwise."""
    vals, counts = np.unique(np.abs(norms), return_counts=True)
    if vals.size and vals[0] == 0:
        raise ZeroDivisionError("a nonzero codeword has norm 0")
    terms = [Fraction(int(c), int(v) ** 3) for v, c in zip(vals, counts)]
    while len(terms) > 1:
        terms = [sum(terms[i:i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] if terms else Fraction(0)


@dataclass(frozen=True)
class ExactCodebook:
    """Exact statistics of one codebook; floats only in the properties."""

    lattice: str
    m: int
    size: int                 # codewords, the zero word included
    q_max: int                # largest energy over nonzero codewords
    q_sum: int                # total energy
    q_closed: int             # every box point with q <= q_closed is kept
    inv_norm_sum: Fraction    # sum over nonzero codewords of |N|^-3

    @property
    def form(self) -> NormForm:
        return NORM_FORMS[self.lattice]

    @property
    def s_value(self) -> float:
        return float(self.inv_norm_sum) * self.form.norm_disc ** 1.5

    @property
    def p_max(self) -> float:
        return rounded_energy(self.q_max, 1, self.form.energy_disc)

    @property
    def p_ave(self) -> float:
        return rounded_energy(self.q_sum, self.size, self.form.energy_disc)


def exact_codebook(lattice: str, m: int, p_lim=math.inf,
                   target_size: int | None = None) -> ExactCodebook:
    """The box-and-ball codebook, or the target_size lowest-energy
    words of the box ordered by (exact energy, lexicographic z)."""
    form = NORM_FORMS[lattice]
    z = _box(m)
    q = _energies(form, z)
    if target_size is not None:
        order = np.lexsort((z[:, 3], z[:, 2], z[:, 1], z[:, 0], q))
        left_out = q[order[target_size:]]
        q_closed = int(left_out.min()) - 1 if left_out.size else int(q.max())
        z, q = z[order[:target_size]], q[order[:target_size]]
    elif math.isfinite(p_lim):
        q_closed = form.energy_cap(p_lim)
        keep = q <= q_closed
        z, q = z[keep], q[keep]
    else:
        q_closed = int(q.max())
    nonzero = np.any(z != 0, axis=1)
    return ExactCodebook(
        lattice=lattice, m=m, size=len(z), q_max=int(q[nonzero].max(initial=0)),
        q_sum=int(q.sum()), q_closed=q_closed,
        inv_norm_sum=inverse_cube_sum(form.norms(z[nonzero])))


def anchor_defect(lattice: str, generator: np.ndarray) -> float:
    """Largest relative gap, over the 80 nonzero words of the 1-box,
    between the oracle's |N| and energy and those of the float generator."""
    form = NORM_FORMS[lattice]
    z = _box(1)
    z = z[np.any(z != 0, axis=1)]
    x = z @ np.asarray(generator, dtype=float)
    norms = np.abs(form.norms(z)).astype(float)
    energies = _energies(form, z) * form.energy_disc ** -0.25
    return float(max(
        np.max(np.abs(np.prod(np.abs(x), axis=1) * form.norm_disc ** 0.5 - norms)
               / norms),
        np.max(np.abs(np.einsum("ij,ij->i", x, x) - energies) / energies)))
