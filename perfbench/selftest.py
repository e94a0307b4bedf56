"""Tests of the benchmark's own references and checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test run.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

REF = oracle.load_reference()
POLYS = dict((k, oracle.zpoly_coeffs(*spec)) for k, spec in workloads.certified_polynomials())
U = oracle.UNIT_ROUNDOFF


def _row(cfg, ref, **changes):
    row = {"lattice": cfg["lattice"], "m": cfg["m"], "p_lim": cfg.get("p_lim"),
           "target_size": cfg.get("target_size"), "size": ref["size"],
           "p_max": ref["p_max"], "p_ave": ref["p_ave"], "s_value": ref["s_value"]}
    row.update(changes)
    return row


# ---------------------------------------------------------------------------
# references

def test_extremal_generator_reproduces_the_catalogue():
    from latticesec import zpoly

    for dim in workloads.CATALOGUE_DIMS:
        m, k, b = oracle.extremal_b(dim)
        assert tuple(oracle.zpoly_coeffs(m, k, b)) == zpoly.table_polynomial(dim).coeffs


def test_extremal_generator_known_coefficients():
    # Leech: E4^3 - 720 Delta; dim 48: E4^6 - 1440 E4^3 Delta + 125280 Delta^2.
    assert oracle.extremal_b(24) == (1, 0, (-720,))
    assert oracle.extremal_b(48) == (2, 0, (-1440, 125280))


@pytest.mark.parametrize("cfg", [
    {"lattice": "lambda1", "m": 2}, {"lattice": "lambda2", "m": 3},
    {"lattice": "lambda1", "m": 3, "p_lim": 4.0},
    {"lattice": "lambda3", "m": 5, "p_lim": 16.0},
    {"lattice": "lambda3", "m": 9, "p_lim": 64.0},
    {"lattice": "lambda3", "m": 12, "target_size": 2401},
])
def test_integer_norm_reference_matches_exact_fraction_sums(cfg):
    import norm_oracle

    exact = norm_oracle.exact_codebook(cfg["lattice"], cfg["m"],
                                       cfg.get("p_lim", math.inf),
                                       cfg.get("target_size"))
    mine = oracle.codebook_reference(**cfg)
    assert mine["size"] == exact.size
    assert mine["p_max"] == exact.p_max
    assert math.isclose(mine["p_ave"], exact.p_ave, rel_tol=4 * U)
    assert math.isclose(mine["s_value"], exact.s_value, rel_tol=4 * U)


@pytest.mark.parametrize("lattice", ["lambda1", "lambda2", "lambda3"])
def test_shipped_generator_within_the_error_model(lattice):
    """On the 1-box, prod |x_i| of the shipped generator meets |N| D^-1/2
    within the first-order bound that s_rel_tol assumes."""
    norms_of, _, norm_disc, _ = oracle.NORM_FORMS[lattice]
    gen = oracle.shipped_generator(lattice)
    z = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 4, indexing="ij"), -1).reshape(-1, 4)
    z = z[np.any(z != 0, axis=1)]
    x = z @ gen
    bound = ((oracle.GENERATOR_ULPS + 4) * U
             * np.sum((np.abs(z) @ np.abs(gen)) / np.abs(x), axis=1) + 8 * U)
    norms = np.abs(norms_of(z)).astype(float)
    err = np.abs(np.prod(np.abs(x), axis=1) * norm_disc ** 0.5 - norms) / norms
    assert np.all(err <= bound)


def test_lambda3_generator_entries_within_the_stated_ulps():
    import mpmath

    with mpmath.workdps(40):
        roots = sorted(mpmath.polyroots([1, -1, -4, 4, 1], maxsteps=200, extraprec=200))
        scale = mpmath.mpf(1125) ** (mpmath.mpf(1) / 8)
        gen = oracle.shipped_generator("lambda3")
        for i in range(4):
            for j in range(4):
                exact = roots[j] ** i / scale
                assert abs(gen[i, j] - exact) <= oracle.GENERATOR_ULPS * U * abs(exact)


def test_stored_reference_is_current():
    """Cheap entries of reference.json against a fresh computation."""
    for key in ("8", "24", "96", workloads.nonholding_key("3/2")):
        assert REF["certificates"][key] == oracle.root_counts(POLYS[key])
    grid = workloads.curve_grid()
    for i in (0, 150, 300, 600):
        assert REF["z"][i] == oracle.z_reference(grid[i])
    for cfg in workloads.TABLE2[:4] + workloads.TABLE1[:3]:
        assert REF["sums"][workloads.sum_key(cfg)] == oracle.codebook_reference(**cfg)


def test_z_reference_agrees_with_the_modular_transform():
    # z(y) = z(1/y); the direct evaluation must hold up where theta4
    # cancels. Powers of two keep 1/y exact.
    for y in (2.0 ** -8, 2.0 ** -6, 2.0 ** -2):
        assert math.isclose(float(Fraction(oracle.z_reference(y))),
                            float(Fraction(oracle.z_reference(1 / y))), rel_tol=1e-20)


# ---------------------------------------------------------------------------
# checks fail just outside their tolerance

@pytest.mark.parametrize("cfg", [{"lattice": "lambda1", "m": 10},
                                 {"lattice": "lambda3", "m": 30, "p_lim": 900.0},
                                 {"lattice": "lambda3", "m": 25, "target_size": 100000}])
def test_sum_row_tolerances(cfg):
    ref = REF["sums"][workloads.sum_key(cfg)]
    tol = ref["s_rel_tol"]
    assert checks.check_sum_row(_row(cfg, ref), cfg, ref) is None
    assert checks.check_sum_row(_row(cfg, ref, s_value=ref["s_value"] * (1 + 0.9 * tol)),
                                cfg, ref) is None
    for change in ({"s_value": ref["s_value"] * (1 + 1.1 * tol)},
                   {"s_value": ref["s_value"] * (1 - 1.1 * tol)},
                   {"size": ref["size"] - 1},
                   {"p_max": ref["p_max"] * (1 + 1.1 * checks.REL_ENERGY)},
                   {"p_ave": ref["p_ave"] * (1 - 1.1 * checks.REL_ENERGY)},
                   {"m": cfg["m"] + 1},
                   {"lattice": "lambda2"}):
        assert checks.check_sum_row(_row(cfg, ref, **change), cfg, ref) is not None, change


def test_box_closed_forms_and_bound():
    cfg = {"lattice": "lambda1", "m": 4}
    ref = dict(REF["sums"][workloads.sum_key(cfg)])
    bound = (9 ** 4 - 1) * 725 ** 1.5
    for key, value in (("p_max", 64 * (1 + 1.1 * checks.REL_ENERGY)),
                       ("p_ave", 80 / 3 * (1 - 1.1 * checks.REL_ENERGY)),
                       ("s_value", bound * (1 + 1e-9))):
        fake = dict(ref, **{key: value})  # the reference agrees; the property does not
        assert checks.check_sum_row(_row(cfg, fake), cfg, fake) is not None, key


def test_csv_and_json_rows_parse_alike():
    cfg = workloads.TABLE2[4]
    ref = REF["sums"][workloads.sum_key(cfg)]
    csv_text = "lattice,m,p_lim,size,p_max,p_ave,s_value\nlambda3,12,,%d,%r,%r,%r\n" % (
        ref["size"], ref["p_max"], ref["p_ave"], ref["s_value"])
    json_text = ('[{"lattice": "lambda3", "m": 12, "p_lim": null, "target_size": 2401,'
                 ' "size": %d, "p_max": %r, "p_ave": %r, "s_value": %r, "exponent": 3}]'
                 % (ref["size"], ref["p_max"], ref["p_ave"], ref["s_value"]))
    for text, fmt in ((csv_text, "csv"), (json_text, "json")):
        assert checks.check_sums(checks.parse_reports(text, fmt), [cfg], REF["sums"]) == [
            ("sum lambda3/m12/t2401", None)]


def _compare_doc(op, order, prob_scale=1.0, gamma_scale=1.0):
    gamma = 10.0 ** (op["gamma_db"] / 10.0)
    entries = []
    for rank, lat in enumerate(order, start=1):
        ref = REF["sums"][workloads.sum_key({"lattice": lat, "m": op["rows"][0]["m"]})]
        prob = (1.0 / (4.0 * gamma ** 2)) ** 2 * op["vol_b"] * ref["s_value"]
        entries.append({"rank": rank, "lattice": lat, "m": 12, "size": ref["size"],
                        "s_value": ref["s_value"], "probability": prob * prob_scale,
                        "dpmin": None})
    return {"gamma_e": gamma * gamma_scale, "vol_b": op["vol_b"], "n": 4,
            "entries": entries}


def test_compare_checks():
    op = next(o for o in workloads.build_ops("box-sum", 5) if o["name"] == "compare")
    ranked = sorted(("lambda1", "lambda2"), key=lambda lat: REF["sums"][
        workloads.sum_key({"lattice": lat, "m": 12})]["s_value"])
    assert checks.check_compare(_compare_doc(op, ranked), op, REF["sums"])[0][1] is None
    for doc in (_compare_doc(op, ranked[::-1]),
                _compare_doc(op, ranked, prob_scale=1 + 1e-9),
                _compare_doc(op, ranked, gamma_scale=1 + 1e-12)):
        assert checks.check_compare(doc, op, REF["sums"])[0][1] is not None


def _certify_out(key):
    coeffs = POLYS[key]
    counts = REF["certificates"][key]
    p_quarter = oracle.poly_eval(coeffs, Fraction(1, 4))
    intervals = []
    if counts["critical_points"]:
        # Bisect the one sign change of P' in (0, 1/4) down to 1e-30.
        deriv = oracle.poly_derivative(coeffs)
        lo, hi = Fraction(0), Fraction(1, 4)
        grid = [Fraction(i, 4096) for i in range(1, 1024)]
        signs = [oracle.poly_eval(deriv, x) > 0 for x in grid]
        i = next(i for i in range(len(grid) - 1) if signs[i] != signs[i + 1])
        lo, hi = grid[i], grid[i + 1]
        s_lo = signs[i]
        while hi - lo > checks.REFINE_WIDTH:
            mid = (lo + hi) / 2
            if (oracle.poly_eval(deriv, mid) > 0) == s_lo:
                lo = mid
            else:
                hi = mid
        intervals.append([str(lo), str(hi)])
    return {"coeffs": [str(c) for c in coeffs], "holds": counts["holds"],
            "critical_points": intervals, "p_at_quarter": str(p_quarter),
            "q_at_zero": str(1 - p_quarter),
            "interior_q_roots": counts["interior_q_roots"], "gain": str(1 / p_quarter)}


@pytest.mark.parametrize("key", ["96", workloads.nonholding_key("3/2")])
def test_certificate_checks(key):
    op = {"key": key}
    good = _certify_out(key)
    assert checks.check_certify(good, op, POLYS, REF["certificates"])[0][1] is None
    bad = [dict(good, holds=not good["holds"]),
           dict(good, interior_q_roots=good["interior_q_roots"] + 1),
           dict(good, p_at_quarter=str(Fraction(good["p_at_quarter"]) + Fraction(1, 10 ** 40))),
           dict(good, q_at_zero=str(Fraction(good["q_at_zero"]) * 2)),
           dict(good, gain=str(Fraction(good["gain"]) + Fraction(1, 10 ** 40))),
           dict(good, coeffs=good["coeffs"][:-1] + ["0"]),
           dict(good, critical_points=good["critical_points"] + [["1/10", "1/10"]])]
    if good["critical_points"]:
        lo, hi = (Fraction(x) for x in good["critical_points"][0])
        bad += [dict(good, critical_points=[[str(lo - Fraction(1, 10 ** 30)), str(hi)]]),
                dict(good, critical_points=[[str(hi), str(hi + Fraction(1, 10 ** 31))]]),
                dict(good, critical_points=[])]
    for out in bad:
        assert checks.check_certify(out, op, POLYS, REF["certificates"])[0][1] is not None


def test_gain_checks():
    good = "\n".join("%d %s" % (d, 1 / oracle.poly_eval(POLYS[str(d)], Fraction(1, 4)))
                     for d in workloads.CATALOGUE_DIMS)
    assert all(p is None for _, p in checks.check_gains(good, POLYS))
    bad = good.replace("\n16 ", "\n16 1").replace("\n24 ", "\n24 -")
    assert sum(p is not None for _, p in checks.check_gains(bad, POLYS)) == 2


def test_z_check_tolerance():
    z_ref = Fraction(REF["z"][400])            # y = 10, well inside the double range
    z = float(z_ref)
    assert checks.check_z(z, z_ref) is None
    assert checks.check_z(z * (1 + 0.9 * checks.REL_Z), z_ref) is None
    assert checks.check_z(z * (1 + 1.1 * checks.REL_Z), z_ref) is not None
    assert checks.check_z("InternalConsistencyError: x", z_ref) is not None
    tiny = Fraction(REF["z"][0])               # y = 1e-3: z underflows
    assert tiny < checks.DOUBLE_MIN
    assert checks.check_z(0.0, tiny) is None
    assert checks.check_z(1e-300, tiny) is not None


def test_curve_value_tolerance():
    checker = checks.Checker(REF)
    i = 350                                     # y = 10^0.5
    z_ref, refs = checker.curve_ref()[i]
    values = [s for s, _ in refs]
    out = {"z": [float(z_ref)], "values": [values]}
    ys = [checker.ys[i]]
    assert checks.check_curves(out, ys, [checker.curve_ref()[i]])[0][1] is None
    s, tol = refs[5]
    for v in (s * (1 + 1.1 * tol), "EvaluationError: x"):
        bad = {"z": [float(z_ref)], "values": [values[:5] + [v] + values[6:]]}
        assert checks.check_curves(bad, ys, [checker.curve_ref()[i]])[0][1] is not None


def test_e8_check():
    good = [[0, 1], [2, 240], [4, 2160], [6, 6720], [8, 17520], [10, 30240]]
    assert checks.check_e8(good, 10)[0][1] is None
    for bad in (good[:-1], good[:-1] + [[10, 30241]], good + [[3, 1]]):
        assert checks.check_e8(bad, 10)[0][1] is not None


def test_known_faults_are_named_only():
    assert checks.known_fault("curve y=0.05")
    assert not checks.known_fault("curve y=0.2")
    assert checks.known_fault("sum lambda1/m20/p400.0")
    assert checks.known_fault("sum lambda3/m12/t2401")
    assert not checks.known_fault("sum lambda3/m30/p900.0")
    assert not checks.known_fault("certify dim 232")


def test_ops_depend_on_the_seed_only_in_cost_neutral_ways():
    for w in workloads.WORKLOADS:
        a, b = workloads.build_ops(w, 1), workloads.build_ops(w, 1)
        assert a == b
        names = {tuple(sorted(o["name"] for o in workloads.build_ops(w, s)))
                 for s in range(20)}
        # The same operations every seed, bar the chosen non-holding scaling.
        assert len({tuple(n for n in ns if "*" not in n) for ns in names}) == 1
