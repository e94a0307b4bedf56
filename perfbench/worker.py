"""The measured process.

    worker.py --src DIR --workload W --seed N --seconds S [--trace]
    worker.py --src DIR --probe [--trace] [LATTICE ...]
    worker.py --src DIR --peak sum|carve

The first form loads the workload's lattices, then runs whole rounds of
its operations until S seconds have passed, timing each operation
(wall and process CPU time) and keeping its raw output. With --trace
it runs one traced round of the workload and of the other workloads'
operations, then one untraced round of the workload. It prints one
JSON document on stdout; the library's own output is captured, never
printed.

The second form is one set-up launch: import latticesec, then load the
given lattices, and print the time of each step.

The third form loads a lattice, makes one large call (workloads.PEAK_CALLS)
and prints how far the process's peak resident memory grew over it.
"""

from __future__ import annotations

# Module-level imports stay to what every launch needs, so that a set-up
# launch times the import of latticesec with nothing preloaded.
import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_program(src: str):
    sys.path.insert(0, src)
    import latticesec

    if not Path(latticesec.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit("latticesec was imported from %s, not from %s"
                         % (latticesec.__file__, src))
    return latticesec


def probe(src: str, lattices: list[str], trace: bool) -> dict:
    t0 = time.perf_counter()
    _import_program(src)
    t1 = time.perf_counter()
    from latticesec import numfields

    mpd = [0.0]
    if trace:
        original = numfields.min_product_distance

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                mpd[0] += time.perf_counter() - start
        numfields.min_product_distance = timed
    t2 = time.perf_counter()
    for name in lattices:
        numfields.load_lattice(name)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t3 - t2 - mpd[0],
            "min_product_distance_s": mpd[0]}


def peak(src: str, cfg: dict) -> dict:
    ls = _import_program(src)
    gen = ls.load_lattice(cfg["lattice"]).generator
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    if cfg.get("target_size") is not None:
        ls.carve_lowest_energy(gen, cfg["m"], cfg["target_size"])
    else:
        ls.inverse_norm_power_sum(gen, cfg["m"], p_lim=cfg["p_lim"])
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - resident
    return {"peak_mb": max(grown, 0) / 2 ** 20}


# ---------------------------------------------------------------------------
# operations

def _error(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


class Runner:
    """Executes operations against the library and records raw outputs."""

    def __init__(self, ls, lattices):
        from latticesec import cli, conjecture, theta, theta_series, zpoly

        self.ls, self.cli, self.conjecture = ls, cli, conjecture
        self.theta, self.theta_series, self.zpoly = theta, theta_series, zpoly
        self.specs = {name: ls.load_lattice(name) for name in lattices}

    def prepare(self, op: dict):
        """Inputs built outside the timed section."""
        if op["kind"] == "certify":
            from fractions import Fraction
            return self.zpoly.ExtremalEvenSpec(
                n=op["dim"], m=op["m"], k=op["k"],
                b=tuple(Fraction(int(x)) for x in op["b"]))
        if op["kind"] == "curves":
            import workloads
            return (workloads.curve_grid(),
                    [self.zpoly.table_polynomial(d) for d in op["dims"]])
        return None

    def run(self, op: dict, prepared):
        kind = op["kind"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if kind == "api-sum":
            cfg = op["rows"][0]
            rep = self.ls.inverse_norm_power_sum(
                self.specs[cfg["lattice"]].generator, cfg["m"], p_lim=cfg["p_lim"],
                lattice_name=cfg["lattice"])
            return {"lattice": rep.lattice_name, "m": rep.m, "p_lim": rep.p_lim,
                    "target_size": rep.target_size, "size": rep.size,
                    "p_max": rep.p_max, "p_ave": rep.p_ave, "s_value": rep.s_value}
        if kind == "certify":
            poly = self.zpoly.even_unimodular_to_zpoly(prepared)
            cert = self.conjecture.verify_conjecture(poly)
            gain = self.zpoly.secrecy_gain(poly)
            return {"coeffs": [str(c) for c in poly.coeffs], "holds": cert.holds,
                    "critical_points": [[str(lo), str(hi)]
                                        for lo, hi in cert.critical_points],
                    "p_at_quarter": str(cert.p_at_quarter),
                    "q_at_zero": str(cert.q_at_zero),
                    "interior_q_roots": cert.interior_q_roots, "gain": str(gain)}
        if kind == "table-polys":
            return {str(d): [str(c) for c in self.zpoly.table_polynomial(d).coeffs]
                    for d in op["dims"]}
        if kind == "curves":
            ys, polys = prepared
            zs, values = [], []
            for y in ys:
                try:
                    zs.append(self.theta.eval_z(y))
                except Exception as exc:  # counted as a failed point
                    zs.append(_error(exc))
                row = []
                for poly in polys:
                    try:
                        row.append(self.zpoly.secrecy_function(poly, y))
                    except Exception as exc:
                        row.append(_error(exc))
                values.append(row)
            return {"z": zs, "values": values}
        if kind == "e8":
            counts = self.theta_series.theta_series_oracle(
                self.theta_series.E8_GRAM, op["max_norm"])
            return [[str(r), c] for r, c in counts]
        raise ValueError("unknown operation kind %r" % kind)

    def round(self, ops: list[dict]) -> list[dict]:
        records = []
        for op in ops:
            prepared = self.prepare(op)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = self.run(op, prepared)
            except Exception as exc:  # a failed operation; the round goes on
                out = {"error": _error(exc)}
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            records.append({"name": op["name"], "wall_s": wall, "cpu_s": cpu,
                            "out": out})
        return records


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if any(t in k for t in ("THREAD", "OMP_", "BLAS", "MKL_",
                                                "BLIS", "VECLIB", "NUMEXPR"))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--peak", choices=("sum", "carve"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("lattices", nargs="*")
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probe(args.src, args.lattices, args.trace)))
        return 0

    sys.path.insert(0, str(HERE))
    import workloads

    if args.peak:
        print(json.dumps(peak(args.src, workloads.PEAK_CALLS[args.peak])))
        return 0
    ls = _import_program(args.src)
    names = workloads.WORKLOADS if args.trace else (args.workload,)
    runner = Runner(ls, sorted({lat for w in names for lat in workloads.lattices(w)}))
    ops = workloads.build_ops(args.workload, args.seed)
    doc = {"facts": machine_facts(), "ops": ops}
    if args.trace:
        import spans

        # Every layer is traced: the other workloads' operations run too.
        # The untraced round runs last, so that warm-up counts against
        # the traced one and the overhead is not understated.
        others = [op for w in names if w != args.workload
                  for op in workloads.build_ops(w, args.seed)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = runner.round(ops + others)
        finally:
            tracer.uninstall()
        untraced = runner.round(ops)
        doc["ops"] = ops + others
        doc["rounds"] = [traced]
        doc["untraced"] = untraced
        doc["layers"] = tracer.metrics()
        doc["layers"]["trace.overhead_s"] = (sum(r["wall_s"] for r in traced[:len(ops)])
                                             - sum(r["wall_s"] for r in untraced))
    else:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(runner.round(ops))
        doc["rounds"] = rounds
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
