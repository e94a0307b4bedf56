"""Secrecy functions of unimodular lattices as exact polynomials in z.

The secrecy function of a unimodular lattice is the ratio of the Z^n
theta series to the lattice theta series at tau = y*i. For unimodular
lattices that ratio is the reciprocal of a polynomial P in the variable
z = theta2^4 theta4^4 / theta3^8, so maximizing the secrecy function
over y reduces to minimizing P(z) on z in [0, 1/4].

This module holds the polynomial representations: conversion from the
two structural forms (even unimodular with Eisenstein/discriminant
coefficients b_j, general unimodular with coefficients a_r), the ten
catalogued extremal even unimodular dimensions 8..80, stored only as
their b_j and converted through the even unimodular form, and
evaluation of secrecy functions and gains. All coefficients are exact
rationals; floats appear only when a polynomial is evaluated at a
numerically computed z(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratpoly
from .errors import DomainError, EvaluationError
from .theta import DEFAULT_TOL, eval_z


@dataclass(frozen=True)
class ZPolynomial:
    """Exact-rational polynomial in z; index = power of z.

    The constant term is pinned to 1 because every unimodular-lattice
    secrecy function tends to 1 as y -> infinity (z -> 0).
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", ratpoly.make_poly(self.coeffs))
        if not self.coeffs or self.coeffs[0] != 1:
            raise DomainError(
                "secrecy polynomial must have constant term 1, got %s"
                % (list(self.coeffs),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate_exact(self, z: Fraction) -> Fraction:
        return ratpoly.evaluate(self.coeffs, Fraction(z))

    def evaluate(self, z: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + float(c)
        return acc

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            coeff = str(mag) if (mag != 1 or i == 0) else ""
            var = "" if i == 0 else ("z" if i == 1 else "z^%d" % i)
            body = coeff + ("*" if coeff and var else "") + var
            parts.append(("- " if c < 0 else "+ ") + body if parts else
                         ("-" if c < 0 else "") + body)
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ExtremalEvenSpec:
    """Structural data of an even unimodular theta series.

    n = 24m + 8k with k in {0, 1, 2}; b holds the m mixing coefficients
    of the weight-n/2 modular form decomposition.
    """

    n: int
    m: int
    k: int
    b: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        if self.n % 8 != 0:
            raise DomainError("even unimodular dimension must be divisible by 8")
        if self.k not in (0, 1, 2):
            raise DomainError("k must be in {0, 1, 2}")
        if self.n != 24 * self.m + 8 * self.k:
            raise DomainError("n = 24m + 8k violated")
        if len(self.b) != self.m:
            raise DomainError("need exactly m coefficients b_j")


@dataclass(frozen=True)
class UnimodularThetaSpec:
    """General unimodular theta data: n = 8*mu + nu, coefficients a_r."""

    n: int
    mu: int
    nu: int
    a: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        if self.n != 8 * self.mu + self.nu:
            raise DomainError("n = 8*mu + nu violated")
        if len(self.a) != self.mu + 1:
            raise DomainError("need exactly mu + 1 coefficients a_r")


def _one_minus_z_power(e: int) -> ratpoly.Poly:
    return ratpoly.power(ratpoly.make_poly([1, -1]), e)


def even_unimodular_to_zpoly(spec: ExtremalEvenSpec) -> ZPolynomial:
    """P(z) = (1-z)^(3m+k) + sum_j (b_j/256^j) (1-z)^(3(m-j)+k) z^(2j)."""
    acc = _one_minus_z_power(3 * spec.m + spec.k)
    for j, bj in enumerate(spec.b, start=1):
        term = ratpoly.scale(
            ratpoly.mul(
                _one_minus_z_power(3 * (spec.m - j) + spec.k),
                ratpoly.make_poly([0] * (2 * j) + [1]),
            ),
            Fraction(bj, 256 ** j),
        )
        acc = ratpoly.add(acc, term)
    return ZPolynomial(acc)


def unimodular_to_zpoly(spec: UnimodularThetaSpec) -> ZPolynomial:
    """P(z) = sum_r (a_r / 16^r) z^r."""
    return ZPolynomial(
        tuple(Fraction(ar, 16 ** r) for r, ar in enumerate(spec.a)))


# The ten catalogued extremal even unimodular theta series in the form
# E4^(3m+k) + sum_j b_j E4^(3(m-j)+k) Delta^j with n = 24m + 8k
# (Conway-Sloane, SPLAG ch. 7): the b_j of each dimension 8..80.
_EXTREMAL_B: dict[int, tuple[int, ...]] = {
    8: (),
    16: (),
    24: (-720,),
    32: (-960,),
    40: (-1200,),
    48: (-1440, 125280),
    56: (-1680, 347760),
    64: (-1920, 627840),
    72: (-2160, 965520, -27302400),
    80: (-2400, 1360800, -103488000),
}


def known_extremal_table() -> list[tuple[int, ZPolynomial]]:
    """The ten catalogued (dimension, P(z)) pairs for dimensions 8..80."""
    return [(dim, table_polynomial(dim)) for dim in _EXTREMAL_B]


def table_polynomial(dim: int) -> ZPolynomial:
    """The catalogued polynomial for one dimension; DomainError if absent."""
    if dim not in _EXTREMAL_B:
        raise DomainError(
            "no catalogued extremal polynomial for dimension %r" % (dim,))
    return even_unimodular_to_zpoly(
        ExtremalEvenSpec(dim, dim // 24, dim % 24 // 8, _EXTREMAL_B[dim]))


def secrecy_function(poly: ZPolynomial, y: float, tol: float = DEFAULT_TOL) -> float:
    """1 / P(z(y)): the eavesdropper-confusion ratio at argument y."""
    value = poly.evaluate(eval_z(y, tol))
    if value <= 0.0:
        raise EvaluationError(
            "P(z(y)) = %g is not positive; polynomial is not a valid "
            "unimodular secrecy polynomial" % (value,))
    return 1.0 / value


def secrecy_gain(poly: ZPolynomial) -> Fraction:
    """Exact 1 / P(1/4): the conjectured maximal secrecy ratio.

    This equals the true gain whenever verify_conjecture(poly).holds.
    """
    at_quarter = poly.evaluate_exact(Fraction(1, 4))
    if at_quarter == 0:
        raise EvaluationError("P(1/4) = 0: degenerate secrecy polynomial")
    return 1 / at_quarter
