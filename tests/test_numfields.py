"""Number fields, canonical embeddings, and the three shipped rotation
matrices with their product-distance invariants."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latticesec import ratpoly
from latticesec.errors import ConstructionError, DiversityError, DomainError
from latticesec.numfields import (
    GeneratorMatrix,
    LatticeSpec,
    LATTICE_NAMES,
    build_lattice,
    canonical_embedding,
    default_data_dir,
    load_lattice,
    min_product_distance,
    normalize_unit_volume,
    number_field,
    save_lattice,
)
from norm_oracle import nf_norm


def _unitarity_defect(gen):
    """The largest entry of |M M^T - I|."""
    M = gen.entries
    return np.abs(M @ M.T - np.eye(len(M))).max()


L1_POLY = (1, 1, -3, -1, 1)


def test_number_field_sqrt2():
    field = number_field((-2, 0, 1))
    assert field.degree == 2
    assert field.roots == pytest.approx((-math.sqrt(2), math.sqrt(2)))


def test_number_field_rejects_non_totally_real():
    with pytest.raises(DomainError):
        number_field((1, 0, 1))  # x^2 + 1
    with pytest.raises(DomainError):
        number_field((1, -2, 1))  # (x-1)^2, repeated root
    with pytest.raises(DomainError):
        number_field((2, 0, 2))  # not monic
    with pytest.raises(DomainError):
        number_field((5,))


def test_canonical_embedding_rows():
    field = number_field((-2, 0, 1))
    gen = canonical_embedding(field, [(1, 0), (0, 1)])
    assert gen.entries[0] == pytest.approx([1.0, 1.0])
    assert gen.entries[1] == pytest.approx([-math.sqrt(2), math.sqrt(2)])
    with pytest.raises(DomainError):
        canonical_embedding(field, [(1, 0), (2, 0)])


# Tr(delta^(i+j)) for the minimal polynomial x^4 - 2x^3 - 5x^2 + 6x - 1;
# its determinant is 14400 = 3^2 * 1600.
_POWER_TRACE_FORM = ((4, 2, 14, 20), (2, 14, 20, 102), (14, 20, 102, 222),
                     (20, 102, 222, 848))


def test_twisted_embedding_proves_its_gram():
    # Z[sqrt(2)] twisted by 1/(4+2*sqrt(2)) on {1, 1+sqrt(2)} has trace form I.
    field = number_field((-2, 0, 1))
    basis, alpha = ((1,), (1, 1)), (Fraction(1, 2), Fraction(-1, 4))
    gen = canonical_embedding(field, basis, alpha=alpha, gram=((1, 0), (0, 1)))
    assert _unitarity_defect(gen) <= 1e-15
    with pytest.raises(ConstructionError, match="trace form"):  # a wrong Gram
        canonical_embedding(field, basis, alpha=alpha, gram=((2, 0), (0, 1)))
    with pytest.raises(ConstructionError, match="span"):  # 2 Z[sqrt(2)], same form
        canonical_embedding(field, ((2,), (2, 2)),
                            alpha=(Fraction(1, 8), Fraction(-1, 16)),
                            gram=((1, 0), (0, 1)))
    with pytest.raises(DomainError, match="totally positive"):  # 1 - 2 sqrt(2) < 0
        canonical_embedding(field, basis, alpha=(1, 2), gram=((2, 10), (10, 22)))
    # (1+sqrt(2))/2 has characteristic polynomial x^2 - x - 1/4; its
    # discriminant 2 and trace form are stated truly, so only integrality fails
    with pytest.raises(ConstructionError, match="algebraic integer"):
        canonical_embedding(field, ((1,), (Fraction(1, 2), Fraction(1, 2))),
                            gram=((2, 1), (1, Fraction(3, 2))), disc=2)
    # Q(delta), delta = sqrt(2) + (1+sqrt(5))/2, of discriminant 1600: the
    # basis {1, 1+sqrt(2)} x {1, (1+sqrt(5))/2} spans its ring of integers,
    # while Z[delta], of index 3 and discriminant 14400, is refused
    field = number_field((-1, 6, -5, -2, 1))
    compositum = ((1,), (Fraction(7, 3), Fraction(-10, 3), -1, Fraction(2, 3)),
                  (Fraction(-4, 3), Fraction(13, 3), 1, Fraction(-2, 3)),
                  (Fraction(-1, 3), Fraction(-5, 3), 0, Fraction(1, 3)))
    alpha = (Fraction(17, 60), Fraction(-7, 30), 0, Fraction(1, 60))
    gen = canonical_embedding(field, compositum, alpha=alpha,
                              gram=np.eye(4, dtype=int), disc=1600)
    assert _unitarity_defect(gen) <= 1e-14
    power = [(0,) * i + (1,) for i in range(4)]
    canonical_embedding(field, power, gram=_POWER_TRACE_FORM)
    with pytest.raises(ConstructionError, match="span"):
        canonical_embedding(field, power, gram=_POWER_TRACE_FORM, disc=1600)


def test_norm_identity_on_random_elements():
    field = number_field(L1_POLY)
    f = ratpoly.make_poly(L1_POLY)
    rng = random.Random(20240817)
    for _ in range(20):
        elem = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(4))
        exact = nf_norm(list(elem), f)
        product = math.prod(sum(float(c) * r ** i for i, c in enumerate(elem))
                            for r in field.roots)
        assert product == pytest.approx(float(exact), rel=1e-9, abs=1e-12)


def test_generator_matrix_guards():
    with pytest.raises(DomainError):
        GeneratorMatrix(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        GeneratorMatrix(np.zeros((2, 2)))
    gen = GeneratorMatrix(np.eye(2))
    with pytest.raises(ValueError):
        gen.entries[0, 0] = 5.0


def test_normalize_unit_volume():
    rng = np.random.default_rng(7)
    m = GeneratorMatrix(rng.normal(size=(4, 4)))
    out = normalize_unit_volume(m)
    assert abs(abs(out.det) - 1.0) <= 1e-12


def test_identity_lattice_is_not_fully_diverse():
    with pytest.raises(DiversityError):
        min_product_distance(GeneratorMatrix(np.eye(4)))


@pytest.mark.parametrize("name,dpmin", [
    ("lambda1", 725.0**-0.5),
    ("lambda2", 1.0 / 40.0),
    ("lambda3", 1125.0**-0.5),
])
def test_reference_product_distances(name, dpmin, request):
    spec = request.getfixturevalue(name)
    assert min_product_distance(spec.generator) == pytest.approx(dpmin, rel=1e-6)
    assert spec.reference_dpmin == pytest.approx(dpmin, rel=1e-6)


def test_rotation_matrices_are_orthonormal(lambda1, lambda2):
    assert _unitarity_defect(lambda1.generator) <= 1e-9
    assert _unitarity_defect(lambda2.generator) <= 1e-9


def test_all_generators_have_unit_volume(lambda1, lambda2, lambda3):
    for spec in (lambda1, lambda2, lambda3):
        assert abs(abs(spec.generator.det) - 1.0) <= 1e-12


def test_skewed_construction_is_not_orthonormal(lambda3):
    # the third construction trades orthonormality for a power basis
    assert _unitarity_defect(lambda3.generator) > 1.0


def test_lambda2_compositum_generator():
    # sqrt(2) + (1 + sqrt(5))/2 is a root of the stored quartic
    x = math.sqrt(2) + (1 + math.sqrt(5)) / 2
    coeffs = (-1, 6, -5, -2, 1)
    value = sum(c * x**i for i, c in enumerate(coeffs))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_shipped_data_matches_builders(lambda1, lambda2, lambda3):
    # lambda2's shipped file was built as a Kronecker product of two
    # quadratic rotations; its one twisted embedding agrees to within
    # 8.9e-16 in the same row and column order. The file's own bits are
    # pinned through tests/data.
    built = {"lambda1": lambda1, "lambda2": lambda2, "lambda3": lambda3}
    for name in LATTICE_NAMES:
        loaded, want = load_lattice(name), built[name]
        got, exp = loaded.generator.entries, want.generator.entries
        if name == "lambda2":
            assert got.shape == exp.shape
            assert np.abs(got - exp).max() <= 1e-15
        else:
            assert (got == exp).all()
        assert loaded.reference_dpmin == want.reference_dpmin


def test_data_dir_override(tmp_path, monkeypatch, lambda1):
    save_lattice(lambda1, tmp_path)
    monkeypatch.setenv("LATTICESEC_DATA", str(tmp_path))
    assert default_data_dir() == tmp_path
    loaded = load_lattice("lambda1")
    assert (loaded.generator.entries == lambda1.generator.entries).all()


def test_corrupted_data_file_is_rejected(tmp_path, monkeypatch, lambda1):
    path = save_lattice(lambda1, tmp_path)
    text = path.read_text().replace(
        "%.17g" % lambda1.generator.entries[0, 0],
        "%.17g" % (2.0 * lambda1.generator.entries[0, 0]))
    path.write_text(text)
    monkeypatch.setenv("LATTICESEC_DATA", str(tmp_path))
    with pytest.raises(ConstructionError):
        load_lattice("lambda1")


@pytest.mark.parametrize("field", ["name", "dpmin_ref", "min_poly", "generator"])
def test_data_file_must_match_the_catalogue(tmp_path, monkeypatch, lambda3, field):
    # Another lattice's name, a dpmin_ref one ulp off, another field, or
    # the basis rebased by row 0 += row 1 (the same lattice, volume and
    # d_p,min, but another coefficient box, which only the Gram tells
    # apart) is not the catalogued lattice.
    path = save_lattice(lambda3, tmp_path)
    doc = json.loads(path.read_text())
    gen = doc["generator"]
    doc[field] = {"name": "lambda2",
                  "dpmin_ref": math.nextafter(doc["dpmin_ref"], 1.0),
                  "min_poly": [1, 4, -4, 1, 1],
                  "generator": [[a + b for a, b in zip(*gen[:2])]] + gen[1:]}[field]
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("LATTICESEC_DATA", str(tmp_path))
    with pytest.raises(ConstructionError):
        load_lattice("lambda3")


def test_missing_data_file(tmp_path, monkeypatch):
    monkeypatch.setenv("LATTICESEC_DATA", str(tmp_path))
    with pytest.raises(DomainError):
        load_lattice("lambda2")
    with pytest.raises(DomainError):
        load_lattice("nonexistent")


def test_build_lattice_names(lambda1):
    assert build_lattice("lambda1").name == "lambda1"
    with pytest.raises(DomainError):
        build_lattice("lambda9")


def test_lattice_spec_enforces_dpmin(lambda3):
    with pytest.raises(ConstructionError):
        LatticeSpec(name="bogus", generator=lambda3.generator,
                    reference_dpmin=0.5, provenance="test")
