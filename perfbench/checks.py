"""Checks of the program's outputs against independent references.

Each check function takes one operation's output and returns a list of
(item, problem) pairs, one per checked output item; problem is None
when the item passed. Nothing here imports latticesec: references come
from `oracle` (directly, or through the stored reference file) and from
properties the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import oracle
import workloads

# S from the float generator is held to the first-order error bound the
# reference stores with each codebook (`s_rel_tol`, see
# oracle.codebook_reference); S from integer norms is exact to rounding.
# p_max and p_ave: float norms against exact integer energies. Squared
# lengths suffer no cancellation, so their error stays near 1e-15.
REL_ENERGY = 1e-12
# eval_z promises relative error <= 100*tol, default tol 1e-14, whenever
# the true value is representable in double precision.
REL_Z = 100 * 1e-14
DOUBLE_MIN = sys.float_info.min
REFINE_WIDTH = Fraction(1, 10 ** 30)

# The faults the benchmark keeps as counted failures; a failure outside
# them makes a run incorrect.
THETA_FAULT_MAX_Y = 0.11          # theta4 series cancels for small y
FLOAT_MEMBERSHIP_ROWS = {"lambda1/m20/p400.0", "lambda2/m20/p400.0"}
TIED_SHELL_CARVES = {"lambda3/m12/t2401"}


def known_fault(item: str) -> bool:
    if item.startswith("curve y="):
        return float(item[len("curve y="):]) <= THETA_FAULT_MAX_Y
    return item.split(" ")[-1] in FLOAT_MEMBERSHIP_ROWS | TIED_SHELL_CARVES


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# confusion sums

def parse_reports(text: str, fmt: str) -> list[dict]:
    """Rows of `latticesec sum` output (csv or json) as dicts with
    lattice, m, p_lim (None when uncapped or carved), target_size (None,
    or True when a csv row is a carve), size, p_max, p_ave, s_value."""
    if fmt == "json":
        return [{k: d[k] for k in ("lattice", "m", "p_lim", "target_size",
                                   "size", "p_max", "p_ave", "s_value")}
                for d in json.loads(text)]
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        carve = r["p_lim"] == ""
        rows.append({
            "lattice": r["lattice"], "m": int(r["m"]),
            "p_lim": None if carve or r["p_lim"] == "inf" else float(r["p_lim"]),
            "target_size": True if carve else None,
            "size": int(r["size"]), "p_max": float(r["p_max"]),
            "p_ave": float(r["p_ave"]), "s_value": float(r["s_value"])})
    return rows


def check_sum_row(row: dict, cfg: dict, ref: dict) -> str | None:
    """One codebook against its integer-norm reference and, for whole
    boxes of the unitary lattices, against the closed forms."""
    target = cfg.get("target_size")
    # A csv row marks a carve with an empty p_lim but omits its size.
    echo_target = (row["target_size"] in (True, target) if target
                   else row["target_size"] is None)
    if not echo_target or (row["lattice"], row["m"], row["p_lim"]) != (
            cfg["lattice"], cfg["m"], cfg.get("p_lim")):
        return "configuration %r does not echo %r" % (row, cfg)
    if row["size"] != ref["size"]:
        return "size %d, exact %d" % (row["size"], ref["size"])
    for key, tol in (("p_max", REL_ENERGY), ("p_ave", REL_ENERGY),
                     ("s_value", ref["s_rel_tol"])):
        if not _rel(row[key], ref[key]) <= tol:
            return "%s %r, reference %r (relative %.2g > %g)" % (
                key, row[key], ref[key], _rel(row[key], ref[key]), tol)
    m = cfg["m"]
    if cfg["lattice"] != "lambda3" and cfg.get("p_lim") is None and not target:
        # A unitary rotation of Z^4 keeps ||x||^2 = ||z||^2 on the box.
        closed = {"size": (2 * m + 1) ** 4, "p_max": 4 * m * m,
                  "p_ave": 4 * m * (m + 1) / 3}
        for key, value in closed.items():
            if not _rel(row[key], value) <= REL_ENERGY:
                return "%s %r, closed form %r" % (key, row[key], value)
        # Every term is at most d_p,min^-3 = 725^1.5 for lambda1.
        if cfg["lattice"] == "lambda1" and not (
                row["s_value"] <= ((2 * m + 1) ** 4 - 1) * 725 ** 1.5):
            return "S %r exceeds the d_p,min bound" % row["s_value"]
    return None


def check_sums(rows: list[dict], cfgs: list[dict], sums: dict):
    if len(rows) != len(cfgs):
        return [("sum rows", "%d rows for %d configurations"
                 % (len(rows), len(cfgs)))]
    return [("sum " + workloads.sum_key(c), check_sum_row(r, c, sums[workloads.sum_key(c)]))
            for r, c in zip(rows, cfgs)]


def check_compare(doc: dict, op: dict, sums: dict):
    """The ranking follows ascending reference S, and each probability is
    (1 / (4 gamma^2))^(n/2) * vol_b * S."""
    gamma = 10.0 ** (op["gamma_db"] / 10.0)
    refs = {c["lattice"]: sums[workloads.sum_key(c)] for c in op["rows"]}
    entries = doc["entries"]
    problem = None
    if doc["n"] != 4 or not _rel(doc["gamma_e"], gamma) <= 1e-15:
        problem = "channel parameters %r" % ({k: doc[k] for k in ("n", "gamma_e")},)
    elif sorted(e["lattice"] for e in entries) != sorted(refs) or [
            e["rank"] for e in entries] != list(range(1, len(entries) + 1)):
        problem = "entries %r" % ([(e["rank"], e["lattice"]) for e in entries],)
    else:
        ranked = [refs[e["lattice"]]["s_value"] for e in entries]
        if ranked != sorted(ranked):
            problem = "ranking %r does not follow ascending S" % (
                [e["lattice"] for e in entries],)
        for e in entries:
            ref = refs[e["lattice"]]
            prob = (1.0 / (4.0 * gamma ** 2)) ** 2 * op["vol_b"] * ref["s_value"]
            tol = ref["s_rel_tol"]
            if e["size"] != ref["size"] or not _rel(e["s_value"], ref["s_value"]) <= tol:
                problem = problem or "%s: size %d, S %r against %d, %r" % (
                    e["lattice"], e["size"], e["s_value"], ref["size"], ref["s_value"])
            elif not _rel(e["probability"], prob) <= tol:
                problem = problem or "%s: probability %r, expected %r" % (
                    e["lattice"], e["probability"], prob)
    return [("compare " + " ".join(c["lattice"] for c in op["rows"]), problem)]


# ---------------------------------------------------------------------------
# certificates

def check_certificate(coeffs, counts: dict, holds, intervals,
                      p_at_quarter: Fraction) -> str | None:
    """A certificate against sympy's root counts and exact evaluation.

    coeffs are the polynomial's own (Fraction) coefficients; intervals
    the reported isolating intervals of the roots of P' in (0, 1/4)."""
    if holds != counts["holds"]:
        return "holds %r, sympy decides %r" % (holds, counts["holds"])
    if len(intervals) != counts["critical_points"]:
        return "%d critical intervals, sympy counts %d" % (
            len(intervals), counts["critical_points"])
    if p_at_quarter != oracle.poly_eval(coeffs, Fraction(1, 4)):
        return "P(1/4) = %s is wrong" % p_at_quarter
    deriv = oracle.poly_derivative(coeffs)
    for lo, hi in intervals:
        if not (0 < lo <= hi < Fraction(1, 4) and hi - lo <= REFINE_WIDTH):
            return "interval (%s, %s) is not inside (0, 1/4) within 1e-30" % (lo, hi)
        d_lo, d_hi = oracle.poly_eval(deriv, lo), oracle.poly_eval(deriv, hi)
        if not (d_lo * d_hi < 0 or (lo == hi and d_lo == 0)):
            return "P' does not change sign on (%s, %s)" % (lo, hi)
    return None


def check_cli_certificates(docs: list[dict], polys: dict, counts: dict):
    out = []
    dims = [d["dimension"] for d in docs]
    if dims != list(workloads.CATALOGUE_DIMS):
        return [("verify --all", "dimensions %r" % (dims,))]
    for d in docs:
        key = str(d["dimension"])
        intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in d["critical_intervals"]]
        out.append(("verify --all dim " + key, check_certificate(
            polys[key], counts[key], d["holds"], intervals,
            Fraction(d["P_at_quarter"]))))
    return out


def check_gains(text: str, polys: dict):
    lines = [line.split() for line in text.splitlines()]
    if [int(dim) for dim, _ in lines] != list(workloads.CATALOGUE_DIMS):
        return [("gain --all", "dimensions of %r" % (text,))]
    return [("gain --all dim " + dim,
             None if Fraction(gain) == 1 / oracle.poly_eval(polys[dim], Fraction(1, 4))
             else "gain %s is not 1/P(1/4)" % gain)
            for dim, gain in lines]


def check_certify(out: dict, op: dict, polys: dict, counts: dict):
    key = op["key"]
    coeffs, ref = polys[key], counts[key]
    p_quarter = oracle.poly_eval(coeffs, Fraction(1, 4))
    if [Fraction(c) for c in out["coeffs"]] != coeffs:
        problem = "even_unimodular_to_zpoly differs from the E4/Delta expansion"
    elif out["interior_q_roots"] != ref["interior_q_roots"]:
        problem = "%d interior roots of Q, sympy counts %d" % (
            out["interior_q_roots"], ref["interior_q_roots"])
    elif Fraction(out["q_at_zero"]) != coeffs[0] - p_quarter:
        problem = "Q(0) = %s is wrong" % out["q_at_zero"]
    elif Fraction(out["gain"]) != 1 / p_quarter:
        problem = "secrecy gain %s is not 1/P(1/4)" % out["gain"]
    else:
        problem = check_certificate(
            coeffs, ref, out["holds"],
            [(Fraction(lo), Fraction(hi)) for lo, hi in out["critical_points"]],
            Fraction(out["p_at_quarter"]))
    return [("certify dim " + key, problem)]


def check_table_polys(out: dict, polys: dict):
    return [("table_polynomial dim %s" % dim,
             None if [Fraction(c) for c in coeffs] == polys[dim]
             else "differs from the E4/Delta expansion")
            for dim, coeffs in out.items()]


# ---------------------------------------------------------------------------
# theta and secrecy curves

def curve_reference(z_refs: list[str], polys: list) -> list[tuple]:
    """Per grid point: the exact z, and per polynomial the reference value
    1/P(z) with the error eval_z's contract and a float Horner evaluation
    of P may add to it (relative: |z P'/P| * 100 tol plus
    (2 deg + 3) u sum |c_i| z^i / P, plus rounding of the reciprocal)."""
    derivs = [oracle.poly_derivative(p) for p in polys]
    out = []
    for text in z_refs:
        z = Fraction(text)
        zf = float(z)
        zx = Fraction(zf) if zf >= DOUBLE_MIN else Fraction(0)
        values = []
        for p, dp in zip(polys, derivs):
            pz = oracle.poly_eval(p, zx)
            mag = float(oracle.poly_eval([abs(c) for c in p], zx))
            slope = float(zx * oracle.poly_eval(dp, zx) / pz)
            tol = (abs(slope) * REL_Z
                   + (2 * len(p) + 3) * oracle.UNIT_ROUNDOFF * mag / float(pz)
                   + 2 * oracle.UNIT_ROUNDOFF)
            values.append((float(1 / pz), tol))
        out.append((z, values))
    return out


def check_z(z_out, z_ref: Fraction) -> str | None:
    if isinstance(z_out, str):
        return "eval_z raised " + z_out
    if z_ref >= DOUBLE_MIN:
        err = abs(Fraction(z_out) - z_ref) / z_ref
        return None if err <= REL_Z else "eval_z %r, mpmath %.12g (relative %.2g)" % (
            z_out, float(z_ref), float(err))
    # Below the double range the contract is that z underflows.
    return None if 0.0 <= z_out <= DOUBLE_MIN else (
        "eval_z %r, mpmath below the double range" % z_out)


def check_curves(out: dict, ys: list[float], reference: list[tuple]):
    items = []
    for y, z_out, values, (z_ref, refs) in zip(ys, out["z"], out["values"], reference):
        problem = check_z(z_out, z_ref)
        for dim, v, (s_ref, tol) in zip(workloads.CATALOGUE_DIMS, values, refs):
            if problem is not None:
                break
            if isinstance(v, str):
                problem = "secrecy_function(dim %d) raised %s" % (dim, v)
            elif not _rel(v, s_ref) <= tol:
                problem = "secrecy_function(dim %d) %r, reference %r" % (dim, v, s_ref)
        items.append(("curve y=%r" % y, problem))
    return items


def check_e8(counts: list, max_norm: int):
    """N(2k) = 240 sigma_3(k) for E8, and no vector of odd norm."""
    expected = {0: 1}
    for k in range(1, max_norm // 2 + 1):
        expected[2 * k] = 240 * sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
    got = {int(r): c for r, c in counts}
    return [("E8 theta series", None if got == expected else
             "counts %r, expected %r" % (got, expected))]


# ---------------------------------------------------------------------------

class Checker:
    """Holds the references one run needs and checks each operation."""

    def __init__(self, reference: dict):
        self.sums = reference["sums"]
        self.counts = reference["certificates"]
        self.polys = {key: oracle.zpoly_coeffs(*spec)
                      for key, spec in workloads.certified_polynomials()}
        self.ys = workloads.curve_grid()
        self._curve_ref = None
        self._z_refs = reference["z"]

    def curve_ref(self):
        if self._curve_ref is None:
            polys = [self.polys[str(d)] for d in workloads.CATALOGUE_DIMS]
            self._curve_ref = curve_reference(self._z_refs, polys)
        return self._curve_ref

    def check(self, op: dict, out) -> list[tuple[str, str | None]]:
        if isinstance(out, dict) and "error" in out:
            return [(op["name"], "raised " + out["error"])]
        kind = op["kind"]
        if kind == "cli":
            if out["rc"] != 0:
                return [(op["name"], "exit %d: %s" % (out["rc"], out["stderr"].strip()))]
            text = out["stdout"]
            parse = op["parse"]
            if parse == "certs":
                return check_cli_certificates(json.loads(text), self.polys, self.counts)
            if parse == "gains":
                return check_gains(text, self.polys)
            if parse == "compare":
                return check_compare(json.loads(text), op, self.sums)
            return check_sums(parse_reports(text, parse), op["rows"], self.sums)
        if kind == "api-sum":
            return check_sums([out], op["rows"], self.sums)
        if kind == "certify":
            return check_certify(out, op, self.polys, self.counts)
        if kind == "table-polys":
            return check_table_polys(out, self.polys)
        if kind == "curves":
            return check_curves(out, self.ys, self.curve_ref())
        if kind == "e8":
            return check_e8(out, op["max_norm"])
        raise ValueError("unknown operation kind %r" % kind)
