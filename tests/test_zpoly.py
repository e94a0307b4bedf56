"""Secrecy polynomials: the catalogued table, the two structural forms,
and exact gains."""

from fractions import Fraction
from math import comb

import pytest

from latticesec.errors import DomainError, EvaluationError
from latticesec.zpoly import (
    ExtremalEvenSpec,
    UnimodularThetaSpec,
    ZPolynomial,
    even_unimodular_to_zpoly,
    known_extremal_table,
    secrecy_function,
    secrecy_gain,
    table_polynomial,
    unimodular_to_zpoly,
)

# P(1/4) for the ten catalogued dimensions, derived by exact evaluation
# and double-checked against the reciprocal gain values.
P_AT_QUARTER = {
    8: Fraction(3, 4),
    16: Fraction(9, 16),
    24: Fraction(63, 256),
    32: Fraction(9, 64),
    40: Fraction(297, 4096),
    48: Fraction(19467, 524288),
    56: Fraction(80757, 4194304),
    64: Fraction(20817, 2097152),
    72: Fraction(685881, 134217728),
    80: Fraction(1414413, 536870912),
}


# The ten catalogued polynomials exactly as printed: each a sum of terms
# coefficient * (1-z)^e1 * z^e2, listed as (coefficient, e1, e2).
PRINTED = {
    8: (("1", 1, 0),),
    16: (("1", 2, 0),),
    24: (("1", 3, 0), ("-45/16", 0, 2)),
    32: (("1", 4, 0), ("-15/4", 1, 2)),
    40: (("1", 5, 0), ("-75/16", 2, 2)),
    48: (("1", 6, 0), ("-45/8", 3, 2), ("3915/2048", 0, 4)),
    56: (("1", 7, 0), ("-105/16", 4, 2), ("21735/4096", 1, 4)),
    64: (("1", 8, 0), ("-15/2", 5, 2), ("4905/512", 2, 4)),
    72: (("1", 9, 0), ("-135/16", 6, 2), ("60345/4096", 3, 4),
         ("-53325/32768", 0, 6)),
    80: (("1", 10, 0), ("-75/8", 7, 2), ("42525/2048", 4, 4),
         ("-202125/32768", 1, 6)),
}


def _printed_coeffs(terms) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * (1 + max(e1 + e2 for _, e1, e2 in terms))
    for c, e1, e2 in terms:
        for i in range(e1 + 1):
            coeffs[e2 + i] += Fraction(c) * comb(e1, i) * (-1) ** i
    return ZPolynomial(coeffs).coeffs


def test_table_matches_the_printed_polynomials():
    for dim, terms in PRINTED.items():
        assert table_polynomial(dim).coeffs == _printed_coeffs(terms), dim
    assert [dim for dim, _ in known_extremal_table()] == list(PRINTED)


def test_table_dimensions():
    dims = [dim for dim, _ in known_extremal_table()]
    assert dims == list(range(8, 88, 8))


def test_exact_values_at_quarter():
    for dim, poly in known_extremal_table():
        assert poly.evaluate_exact(Fraction(1, 4)) == P_AT_QUARTER[dim]


def test_gains_are_exact_reciprocals():
    for dim, poly in known_extremal_table():
        assert secrecy_gain(poly) == 1 / P_AT_QUARTER[dim]
    assert secrecy_gain(table_polynomial(8)) == Fraction(4, 3)
    assert secrecy_gain(table_polynomial(16)) == Fraction(16, 9)
    assert secrecy_gain(table_polynomial(24)) == Fraction(256, 63)


def test_constant_term_must_be_one():
    with pytest.raises(DomainError):
        ZPolynomial((Fraction(2), Fraction(1)))
    with pytest.raises(DomainError):
        ZPolynomial(())
    with pytest.raises(DomainError):
        ZPolynomial((Fraction(0), Fraction(1)))


def test_float_and_exact_evaluation_agree():
    poly = table_polynomial(72)
    z = Fraction(1, 8)
    assert poly.evaluate(float(z)) == pytest.approx(
        float(poly.evaluate_exact(z)), rel=1e-14)


def test_str_rendering():
    assert str(table_polynomial(8)) == "1 - z"
    assert str(table_polynomial(16)) == "1 - 2*z + z^2"
    assert "3/16*z^2" in str(table_polynomial(24))


def test_even_unimodular_form_matches_table():
    # dim 8: n = 24*0 + 8*1, no mixing coefficients
    assert even_unimodular_to_zpoly(
        ExtremalEvenSpec(n=8, m=0, k=1)).coeffs == table_polynomial(8).coeffs
    # dim 24: z^2 coefficient -45/16 corresponds to b_1 = -720
    assert even_unimodular_to_zpoly(
        ExtremalEvenSpec(n=24, m=1, k=0, b=(-720,))
    ).coeffs == table_polynomial(24).coeffs


def test_unimodular_form():
    # P = 1 + (a_1/16) z with a_1 = -16 reproduces the dim-8 polynomial
    spec = UnimodularThetaSpec(n=8, a=(1, -16))
    assert unimodular_to_zpoly(spec).coeffs == table_polynomial(8).coeffs
    # dim 16 takes n//8 + 1 = 3 coefficients: P = 1 - 2z + z^2 = (1-z)^2
    assert unimodular_to_zpoly(UnimodularThetaSpec(16, (1, -32, 256))) == table_polynomial(16)


def test_structural_spec_validation():
    with pytest.raises(DomainError):
        ExtremalEvenSpec(n=12, m=0, k=1)
    with pytest.raises(DomainError):
        ExtremalEvenSpec(n=8, m=0, k=3)
    with pytest.raises(DomainError):
        ExtremalEvenSpec(n=8, m=1, k=1)
    with pytest.raises(DomainError):
        ExtremalEvenSpec(n=24, m=1, k=0, b=())
    with pytest.raises(DomainError):
        UnimodularThetaSpec(n=8, a=(1, 2, 3))
    with pytest.raises(DomainError):
        UnimodularThetaSpec(n=8, a=(1,))
    with pytest.raises(DomainError):  # a degree-1 P for a 16-dim lattice
        UnimodularThetaSpec(n=16, a=(1, -32))


def test_secrecy_function_peak_at_one():
    poly = table_polynomial(8)
    gain = float(secrecy_gain(poly))
    assert secrecy_function(poly, 1.0) == pytest.approx(gain, rel=1e-12)
    for y in (0.2, 0.5, 0.8, 1.3, 2.0, 5.0):
        assert secrecy_function(poly, y) <= gain + 1e-12


def test_secrecy_function_tends_to_one():
    poly = table_polynomial(24)
    assert secrecy_function(poly, 50.0) == pytest.approx(1.0, rel=1e-12)


def test_degenerate_polynomials_raise():
    with pytest.raises(EvaluationError):
        secrecy_gain(ZPolynomial((Fraction(1), Fraction(-4))))  # P(1/4) = 0
    with pytest.raises(EvaluationError):
        secrecy_function(ZPolynomial((Fraction(1), Fraction(-5))), 1.0)
