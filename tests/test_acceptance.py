"""Acceptance gate: one test per criterion, each emitting a single
CRITERION line with its verdict.

Reference values are asserted as catalogued, at the catalogue's own
tolerances. A catalogued value is replaced only through ERRATA, and
only together with a proof that the test checks on every run: the
corrected value must equal the exact norm-form oracle (norm_oracle.py)
to 6 significant digits, and the catalogued value must be impossible
(above a hard upper bound, below the sum of a codebook the row
contains, or off the oracle at the catalogue's own precision). An
erratum whose proof fails fails its criterion.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from latticesec.cli import main as cli_main
from latticesec.constellation import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    inverse_norm_power_sum,
    reports_to_csv,
    table_sweep,
)
from latticesec.theta import eval_z, theta_triple
from latticesec.theta_series import E8_GRAM, theta_series_oracle
from latticesec.zpoly import secrecy_gain, table_polynomial
from norm_oracle import anchor_defect, exact_codebook

# catalogued 6-significant-digit sums for the two orthonormal rotations,
# box constellations m = 1..10
TABLE1_S1 = (9.12264e7, 2.24565e10, 2.49382e11, 2.49829e11, 2.49851e11,
             2.50437e11, 2.61395e11, 2.61736e11, 2.61739e11, 2.71764e11)
TABLE1_S2 = (2.83706e6, 6.46037e6, 1.16395e7, 1.52838e7, 1.99487e7,
             2.38188e7, 2.69652e7, 3.00791e7, 3.42272e7, 3.68287e7)

# catalogued spherical rows: m -> (size, p_max, p_ave, s_value); the
# m = 12 row is the target-size carve.
TABLE2 = {
    8: (79, 3.63, 2.66, 1.89195e6),
    5: (555, 15.71, 9.18, 4.24298e6),
    6: (715, 15.71, 9.56, 4.77423e6),
    7: (2405, 35.57, 20.33, 7.13024e6),
    12: (2401, 24.00, 15.24, 2.29374e6),
    9: (6929, 63.89, 35.67, 9.93903e6),
    10: (13663, 99.97, 55.72, 1.20680e7),
    11: (16053, 99.97, 55.57, 1.29038e7),
    14: (50975, 195.98, 106.63, 1.29038e7),
    18: (137273, 323.93, 175.95, 2.18703e7),
    20: (208411, 399.90, 217.31, 2.40716e7),
}


@dataclass(frozen=True)
class Erratum:
    """A corrected catalogue entry and the proof that the test asserts.

    proof is one of
      "bound"        S <= ((2m+1)^4 - 1) * 725^1.5 for every lattice with
                     d_p,min = 725^-1/2 (C5), and the catalogued S exceeds it;
      "containment"  the codebook of row `inner` lies inside this row's,
                     so S here is at least S(inner), and the catalogued S
                     is below S(inner);
      "oracle"       the catalogued value differs from the exact oracle
                     at the catalogue's own precision.
    Every corrected value must also equal the oracle to 6 digits.
    """

    table: str        # "TABLE1_S1", "TABLE1_S2" or "TABLE2"
    m: int
    field: str        # "s_value" or "p_ave"
    value: float
    proof: str
    inner: int | None = None


ERRATA = tuple(
    Erratum("TABLE1_S1", m, "s_value", value, "bound")
    for m, value in enumerate((1.24955e6, 3.51579e6, 6.09484e6, 7.65982e6,
                               1.07074e7, 1.27404e7, 1.43051e7, 1.62600e7,
                               1.82141e7, 2.00910e7), start=1)
) + (
    Erratum("TABLE1_S2", 3, "s_value", 1.16495e7, "oracle"),
    Erratum("TABLE2", 10, "p_ave", 54.7245, "oracle"),
    Erratum("TABLE2", 12, "s_value", 8.57291e6, "containment", inner=5),
    Erratum("TABLE2", 14, "s_value", 1.72345e7, "oracle"),
)

_TABLES = {
    "TABLE1_S1": ("lambda1", TABLE1_ROWS),
    "TABLE1_S2": ("lambda2", TABLE1_ROWS),
    "TABLE2": ("lambda3", TABLE2_ROWS),
}


def _catalogued(table: str, m: int, field: str) -> float:
    if table == "TABLE2":
        return TABLE2[m][("size", "p_max", "p_ave", "s_value").index(field)]
    return {"TABLE1_S1": TABLE1_S1, "TABLE1_S2": TABLE1_S2}[table][m - 1]


def reference(table: str, m: int, field: str) -> float:
    """The catalogued value, or its erratum's corrected value."""
    for e in ERRATA:
        if (e.table, e.m, e.field) == (table, m, field):
            return e.value
    return _catalogued(table, m, field)


def _oracle_row(table: str, m: int):
    lattice, rows = _TABLES[table]
    row = next(r for r in rows if r.m == m)
    return exact_codebook(lattice, row.m, row.p_lim, row.target_size)


def _at_catalogue_precision(field: str, x: float) -> float:
    return float("%.6g" % x) if field == "s_value" else round(x, 2)


def prove_errata(table_names, generators) -> tuple[list[str], list[str]]:
    """Check every erratum of the given tables against the exact oracle.

    generators maps lattice name -> generator entries; the oracle must
    describe the same lattice in the same coordinates (anchor defect
    <= 1e-9). Returns (proof texts, failures).
    """
    proofs, failures = [], []
    for lattice in sorted({_TABLES[t][0] for t in table_names}):
        defect = anchor_defect(lattice, generators[lattice])
        if not defect <= 1e-9:
            failures.append("%s oracle anchor defect %.2e" % (lattice, defect))
    for e in ERRATA:
        if e.table not in table_names:
            continue
        lattice = _TABLES[e.table][0]
        cat = _catalogued(e.table, e.m, e.field)
        exact = _oracle_row(e.table, e.m)
        got = getattr(exact, e.field)
        why = []
        if float("%.6g" % got) != e.value:
            why.append("oracle gives %.6g" % got)
        if e.proof == "bound":
            bound = ((2 * e.m + 1) ** 4 - 1) * 725**1.5
            note = "catalogued > ((2m+1)^4-1)*725^1.5 = %.3g >= exact" % bound
            if not (cat > bound >= got):
                why.append("catalogued not above the bound")
        elif e.proof == "containment":
            inner = _oracle_row(e.table, e.inner)
            note = ("keeps every q<=%d of box %d, so contains m=%d (box %d, "
                    "q<=%d); S >= S(m=%d) = %.6g > catalogued"
                    % (exact.q_closed, exact.m, e.inner, inner.m, inner.q_max,
                       e.inner, inner.s_value))
            if not (inner.m <= exact.m and inner.q_max <= exact.q_closed
                    and exact.inv_norm_sum >= inner.inv_norm_sum
                    and cat < inner.s_value):
                why.append("catalogued not below the contained sum")
        else:
            note = "exact %.6g" % got
            if _at_catalogue_precision(e.field, got) == cat:
                why.append("catalogued agrees with the oracle")
        text = "%s m=%d %s %.6g->%.6g [%s: %s]" % (
            lattice, e.m, e.field, cat, e.value, e.proof, note)
        proofs.append(text)
        if why:
            failures.append("%s UNPROVED: %s" % (text, ", ".join(why)))
    return proofs, failures


@pytest.fixture
def verdict(capfd):
    def _verdict(num: int, ok: bool, detail: str) -> None:
        line = "CRITERION %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


def test_criterion_1_peak_certificates(verdict):
    t0 = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["secrecy", "verify", "--all"])
    elapsed = time.monotonic() - t0
    docs = json.loads(buf.getvalue())
    held = sum(1 for d in docs if d["holds"])
    ok = code == 0 and len(docs) == 10 and held == 10 and elapsed < 5.0
    verdict(1, ok, "exit %d, %d/10 certificates hold, %.3fs (budget 5s)"
            % (code, held, elapsed))


def test_criterion_2_exact_gains(verdict):
    want = {8: Fraction(4, 3), 16: Fraction(16, 9), 24: Fraction(256, 63)}
    got = {dim: secrecy_gain(table_polynomial(dim)) for dim in want}
    ok = got == want
    verdict(2, ok, "gains %s" % ", ".join(
        "dim %d: %s" % (d, g) for d, g in sorted(got.items())))


def test_criterion_3_theta_properties(verdict):
    grid = np.geomspace(0.05, 20.0, 50)
    sym = max(abs(eval_z(float(y)) - eval_z(1.0 / float(y))) for y in grid)
    at_one = abs(eval_z(1.0) - 0.25)
    resid = 0.0
    for y in grid:
        trip = theta_triple(float(y))
        resid = max(resid, abs(trip.theta2**4 + trip.theta4**4
                               - trip.theta3**4) / trip.theta3**4)
    ok = sym <= 1e-10 and at_one <= 1e-10 and resid <= 1e-10
    verdict(3, ok, "max |z(y)-z(1/y)| = %.2e, |z(1)-1/4| = %.2e, "
            "max identity residual = %.2e (all <= 1e-10)" % (sym, at_one, resid))


def test_criterion_4_theta_series_oracle(verdict):
    counts = dict(theta_series_oracle(E8_GRAM, 6))
    want = {0: 1, 2: 240, 4: 2160, 6: 6720}
    ok = counts == want
    verdict(4, ok, "rank-8 root lattice counts %s" % counts)


def test_criterion_5_lattice_constructions(verdict, lambda1, lambda2, lambda3):
    refs = {"lambda1": 725.0**-0.5, "lambda2": 1.0 / 40.0,
            "lambda3": 1125.0**-0.5}
    specs = {"lambda1": lambda1, "lambda2": lambda2, "lambda3": lambda3}
    from latticesec.numfields import min_product_distance
    dp_rel = max(abs(min_product_distance(s.generator) - refs[n]) / refs[n]
                 for n, s in specs.items())
    unit = max(np.abs(M @ M.T - np.eye(4)).max()
               for M in (lambda1.generator.entries, lambda2.generator.entries))
    det_dev = max(abs(abs(s.generator.det) - 1.0) for s in specs.values())
    ok = dp_rel <= 1e-6 and unit <= 1e-9 and det_dev <= 1e-12
    verdict(5, ok, "d_p,min rel dev %.2e (<=1e-6), unitarity defect %.2e "
            "(<=1e-9), det dev %.2e (<=1e-12)" % (dp_rel, unit, det_dev))


def test_criterion_6_table1(verdict, lambda1, lambda2):
    proofs, unproved = prove_errata(
        ("TABLE1_S1", "TABLE1_S2"),
        {"lambda1": lambda1.generator.entries,
         "lambda2": lambda2.generator.entries})

    t0 = time.monotonic()
    rep1 = table_sweep([(lambda1, TABLE1_ROWS)])
    rep2 = table_sweep([(lambda2, TABLE1_ROWS)])
    elapsed = time.monotonic() - t0

    closed_bad = []
    for rep in rep1 + rep2:
        m = rep.m
        pmax_ref, pave_ref = 4.0 * m * m, 4.0 * m * (m + 1) / 3.0
        if not (format(rep.p_max, ".6g") == format(pmax_ref, ".6g")
                and abs(rep.p_max - pmax_ref) <= 1e-9 * pmax_ref
                and format(rep.p_ave, ".6g") == format(pave_ref, ".6g")
                and abs(rep.p_ave - pave_ref) <= 1e-9 * pave_ref):
            closed_bad.append((rep.lattice_name, m))

    def s_bad(table, reports):
        return [(r.m, r.s_value) for r in reports
                if abs(r.s_value - (ref := reference(table, r.m, "s_value")))
                / ref > 1e-3]
    s1_bad = s_bad("TABLE1_S1", rep1)
    s2_bad = s_bad("TABLE1_S2", rep2)

    ok = (not closed_bad and not s1_bad and not s2_bad and not unproved
          and elapsed <= 30.0)
    detail = ("P_max/P_ave closed forms %s; lambda2 S %d/10 within 1e-3; "
              "lambda1 S %d/10 within 1e-3; %.1fs (budget 30s)"
              % ("ok" if not closed_bad else "BAD %s" % closed_bad,
                 10 - len(s2_bad), 10 - len(s1_bad), elapsed))
    if s1_bad or s2_bad:
        detail += "; S deviations at %s" % ", ".join(
            "%s m=%d computed %.6g" % (name, m, s)
            for name, bad in (("lambda1", s1_bad), ("lambda2", s2_bad))
            for m, s in bad)
    detail += "; errata applied %d: %s" % (len(proofs), "; ".join(proofs))
    if unproved:
        detail += "; " + "; ".join(unproved)
    verdict(6, ok, detail)


def test_criterion_7_table2(verdict, lambda3):
    proofs, unproved = prove_errata(
        ("TABLE2",), {"lambda3": lambda3.generator.entries})

    t0 = time.monotonic()
    reports = table_sweep([(lambda3, TABLE2_ROWS)])
    elapsed = time.monotonic() - t0
    by_m = {r.m: r for r in reports}

    size_bad = [m for m in (8, 7, 12) if by_m[m].size != TABLE2[m][0]]
    energy_bad = []
    s_bad = []
    for m in TABLE2:
        rep = by_m[m]
        pmax = reference("TABLE2", m, "p_max")
        pave = reference("TABLE2", m, "p_ave")
        s_ref = reference("TABLE2", m, "s_value")
        if abs(rep.p_max - pmax) > 1e-2 or abs(rep.p_ave - pave) > 1e-2:
            energy_bad.append((m, rep.p_max, rep.p_ave))
        if abs(rep.s_value - s_ref) / s_ref > 1e-3:
            s_bad.append((m, rep.s_value))

    ok = (not size_bad and not energy_bad and not s_bad and not unproved
          and elapsed <= 60.0)
    detail = ("sizes(8,7,12) %s; P_max/P_ave within 1e-2 for %d/11; "
              "S within 1e-3 for %d/11 rows; m=14 computed %.6g "
              "(catalogued value duplicates m=11, corrected by erratum); "
              "%.1fs (budget 60s)"
              % ("exact" if not size_bad else "BAD %s" % size_bad,
                 11 - len(energy_bad), 11 - len(s_bad),
                 by_m[14].s_value, elapsed))
    if energy_bad:
        detail += "; energy deviations at m=%s" % (
            ", ".join("%d (%.2f, %.2f)" % e for e in energy_bad))
    if s_bad:
        detail += "; S deviations at m=%s" % (
            ", ".join("%d computed %.6g" % b for b in s_bad))
    detail += "; errata applied %d: %s" % (len(proofs), "; ".join(proofs))
    if unproved:
        detail += "; " + "; ".join(unproved)
    verdict(7, ok, detail)


def test_criterion_8_property_suites(verdict, lambda1, lambda2, lambda3):
    specs = (lambda1, lambda2, lambda3)

    rng = random.Random(424242)
    mono_ok = True
    for _ in range(20):
        spec = rng.choice(specs)
        m = rng.randint(1, 3)
        p_lim = rng.uniform(2.0, 30.0)
        base = inverse_norm_power_sum(spec.generator, m, p_lim=p_lim)
        in_m = inverse_norm_power_sum(spec.generator, m + 1, p_lim=p_lim)
        in_p = inverse_norm_power_sum(spec.generator, m, p_lim=2 * p_lim)
        mono_ok &= (base.s_value <= in_m.s_value
                    and base.s_value <= in_p.s_value)

    base = inverse_norm_power_sum(lambda3.generator, 2, p_lim=9.0)
    perm_dev = 0.0
    for _ in range(10):
        perm = rng.sample(range(4), 4)
        signs = np.array([rng.choice((-1.0, 1.0)) for _ in range(4)])
        twisted = lambda3.generator.entries[:, perm] * signs
        rep = inverse_norm_power_sum(twisted, 2, p_lim=9.0)
        perm_dev = max(perm_dev,
                       abs(rep.s_value - base.s_value) / base.s_value)
    perm_ok = perm_dev <= 1e-12

    th = 0.7
    rot = np.array([[math.cos(th), math.sin(th)],
                    [-math.sin(th), math.cos(th)]]) * 1.3
    rep = inverse_norm_power_sum(rot, 2, p_lim=5.0)
    brute = math.fsum(
        sorted(1.0 / abs(x[0] * x[0] * x[0] * x[1] * x[1] * x[1])
               for z1 in range(-2, 3) for z2 in range(-2, 3)
               if (z1, z2) != (0, 0)
               and (x := np.array([z1, z2], float) @ rot) @ x <= 5.0))
    brute_ok = abs(rep.s_value - brute) / brute <= 1e-12

    csvs = {
        reports_to_csv(
            [inverse_norm_power_sum(lambda3.generator, 9, p_lim=64.0,
                                    jobs=jobs, lattice_name="lambda3")],
            full_precision=True)
        for jobs in (1, 2, 8)
    }
    workers_ok = len(csvs) == 1

    ok = mono_ok and perm_ok and brute_ok and workers_ok
    verdict(8, ok, "monotonicity 20/20 %s; sign/permutation max rel dev "
            "%.2e (<=1e-12); n=2 brute-force rel dev %s (<=1e-12); "
            "workers 1/2/8 byte-identical: %s"
            % ("ok" if mono_ok else "BAD", perm_dev,
               "%.2e" % (abs(rep.s_value - brute) / brute), workers_ok))
