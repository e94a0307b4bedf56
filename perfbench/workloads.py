"""The three workloads: the operations each round runs, made from a seed.

An operation is plain data (a dict) that the measured process executes
and the checking process pairs with its reference. Every workload
attempts the same operations in every round; the seed only chooses
among variants of equal cost and the order they run in, so it never
decides whether an operation can fail.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify", "box-sum", "energy-sum")

CATALOGUE_DIMS = tuple(range(8, 81, 8))
EXTRA_DIMS = tuple(range(88, 233, 8))
# Scalings of b_1 of the dim-160 extremal series. Each gives a
# polynomial whose minimum is not at z = 1/4 and whose derivative has
# one root in (0, 1/4), so isolation and refinement run; all cost alike.
NONHOLDING_DIM = 160
NONHOLDING_FACTORS = ("5/4", "4/3", "7/5", "3/2", "8/5", "5/3", "7/4", "9/5")
E8_MAX_NORM = 10

# The catalogued sweeps, as the paper tabulates them.
TABLE1 = [{"lattice": lat, "m": m} for lat in ("lambda1", "lambda2")
          for m in range(1, 11)]
TABLE2 = [{"lattice": "lambda3", "m": m, "p_lim": p} for m, p in
          ((8, 4.0), (5, 16.0), (6, 16.0), (7, 36.0))] + [
    {"lattice": "lambda3", "m": 12, "target_size": 2401}] + [
    {"lattice": "lambda3", "m": m, "p_lim": p} for m, p in
    ((9, 64.0), (10, 100.0), (11, 100.0), (14, 196.0), (18, 324.0),
     (20, 400.0))]
# Uncapped box sizes (lambda1 m, lambda2 m): the seed swaps them, so the
# box points (15.9M) and the largest slice stay the same.
BOX_PAIRS = ((25, 27), (27, 25))
COMPARE_M = 12
ENERGY_ROWS = [
    {"lattice": "lambda3", "m": 30, "p_lim": 900.0},
    {"lattice": "lambda3", "m": 40, "p_lim": 1600.0},
    {"lattice": "lambda3", "m": 25, "target_size": 100000},
    {"lattice": "lambda1", "m": 20, "p_lim": 400.0},
    {"lattice": "lambda2", "m": 20, "p_lim": 400.0},
]

# The calls whose peak memory growth the traced run reports.
PEAK_CALLS = {"sum": ENERGY_ROWS[1], "carve": ENERGY_ROWS[2]}


def curve_grid() -> list[float]:
    """601 log-spaced points over the supported domain [1e-3, 1e3]."""
    return [10.0 ** (-3 + i / 100) for i in range(601)]


def nonholding_key(factor: str) -> str:
    return "%d*%s" % (NONHOLDING_DIM, factor)


def certified_polynomials():
    """(key, (m, k, b)) of every polynomial a certify round certifies
    through the library, over all seeds."""
    from oracle import extremal_b
    from fractions import Fraction

    out = [(str(dim), extremal_b(dim)) for dim in CATALOGUE_DIMS + EXTRA_DIMS]
    m, k, b = extremal_b(NONHOLDING_DIM)
    for f in NONHOLDING_FACTORS:
        scaled = b[0] * Fraction(f)
        if scaled.denominator != 1:
            raise ValueError("b_1 * %s is not an integer" % f)
        out.append((nonholding_key(f), (m, k, (int(scaled),) + b[1:])))
    return out


def sum_key(cfg: dict) -> str:
    key = "%s/m%d" % (cfg["lattice"], cfg["m"])
    if cfg.get("p_lim") is not None:
        key += "/p%r" % cfg["p_lim"]
    if cfg.get("target_size") is not None:
        key += "/t%d" % cfg["target_size"]
    return key


def sum_configurations() -> list[dict]:
    """Every codebook a sum round can touch, over all seeds."""
    cfgs = TABLE1 + TABLE2 + ENERGY_ROWS
    cfgs += [{"lattice": lat, "m": m} for lat in ("lambda1", "lambda2")
             for m in sorted({m for pair in BOX_PAIRS for m in pair}
                             | {COMPARE_M})]
    unique = {sum_key(c): c for c in cfgs}
    return list(unique.values())


def _sum_argv(cfg: dict, fmt: str) -> list[str]:
    argv = ["sum", "--lattice", cfg["lattice"], "--m", str(cfg["m"])]
    if cfg.get("p_lim") is not None:
        argv += ["--p-lim", repr(cfg["p_lim"])]
    if cfg.get("target_size") is not None:
        argv += ["--target-size", str(cfg["target_size"])]
    return argv + ["--format", fmt, "--full-precision"]


def _cli_sum(name: str, cfg: dict, fmt: str) -> dict:
    return {"name": name, "kind": "cli", "argv": _sum_argv(cfg, fmt),
            "parse": fmt, "rows": [cfg]}


def lattices(workload: str) -> tuple[str, ...]:
    """The lattices a workload loads during set-up."""
    return {"certify": (), "box-sum": ("lambda1", "lambda2"),
            "energy-sum": ("lambda1", "lambda2", "lambda3")}[workload]


def build_ops(workload: str, seed: int) -> list[dict]:
    """The operations of one round, in the order they run."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "certify":
        factor = rng.choice(NONHOLDING_FACTORS)
        ops = [
            {"name": "secrecy-verify-all", "kind": "cli",
             "argv": ["secrecy", "verify", "--all"], "parse": "certs"},
            {"name": "secrecy-gain-all", "kind": "cli",
             "argv": ["secrecy", "gain", "--all"], "parse": "gains"},
            {"name": "table-polynomials", "kind": "table-polys",
             "dims": list(CATALOGUE_DIMS)},
            {"name": "curves", "kind": "curves", "dims": list(CATALOGUE_DIMS)},
            {"name": "e8-theta-series", "kind": "e8", "max_norm": E8_MAX_NORM},
        ]
        polys = dict(certified_polynomials())
        for key in [str(d) for d in EXTRA_DIMS] + [nonholding_key(factor)]:
            m, k, b = polys[key]
            dim = 24 * m + 8 * k
            ops.append({"name": "certify-" + key, "kind": "certify", "key": key,
                        "dim": dim, "m": m, "k": k, "b": [str(x) for x in b]})
    elif workload == "box-sum":
        m1, m2 = rng.choice(BOX_PAIRS)
        pair = ["lambda1", "lambda2"]
        rng.shuffle(pair)
        gamma_db = round(rng.uniform(0.0, 20.0), 1)
        vol_b = rng.choice((0.5, 1.0, 2.0))
        ops = [
            {"name": "sum-table1", "kind": "cli",
             "argv": ["sum", "--reproduce", "table1", "--full-precision"],
             "parse": "csv", "rows": TABLE1},
            _cli_sum("sum-lambda1-box", {"lattice": "lambda1", "m": m1},
                     rng.choice(("csv", "json"))),
            _cli_sum("sum-lambda2-box", {"lattice": "lambda2", "m": m2},
                     rng.choice(("csv", "json"))),
            {"name": "compare", "kind": "cli",
             "argv": ["compare", "--lattice", pair[0], "--lattice", pair[1],
                      "--m", str(COMPARE_M), "--gamma-db", repr(gamma_db),
                      "--vol-b", repr(vol_b), "--format", "json"],
             "parse": "compare", "gamma_db": gamma_db, "vol_b": vol_b,
             "rows": [{"lattice": lat, "m": COMPARE_M} for lat in pair]},
        ]
    elif workload == "energy-sum":
        ops = [{"name": "sum-table2", "kind": "cli",
                "argv": ["sum", "--reproduce", "table2", "--full-precision"],
                "parse": "csv", "rows": TABLE2}]
        for cfg in ENERGY_ROWS:
            name = "sum-%s" % sum_key(cfg).replace("/", "-")
            if cfg["lattice"] == "lambda3":
                ops.append(_cli_sum(name, cfg, rng.choice(("csv", "json"))))
            else:
                ops.append({"name": name, "kind": "api-sum", "rows": [cfg]})
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(ops)
    return ops
