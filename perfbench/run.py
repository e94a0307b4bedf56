"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Set-up time comes from several fresh launches that import latticesec
from ./src and load the workload's lattices. The workload then runs in
one fresh measured process (worker.py); this process checks every
output that process reports against the stored independent references
(reference.json, rebuilt by oracle.py) outside its timed sections and
its memory. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. A full record of the run (machine
facts, thread environment, per-operation times, failures) is written
to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# Half of the set-up launches run before the measured process and half
# after it, so that one slow stretch of the machine moves fewer of them.
SETUP_LAUNCHES = 10
LAUNCH_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150


def _worker(*args: str, timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"), *args]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd[1:]), done.returncode,
                                                  done.stderr[-4000:]))
    return done.stdout


def setup_launches(lattices, trace: bool, count: int) -> list[dict]:
    """Fresh interpreters that import latticesec and load the lattices;
    each reports its own step times, and is timed from launch to exit."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        text = _worker("--probe", *(["--trace"] if trace else []), *lattices,
                       timeout=LAUNCH_TIMEOUT_S)
        record = json.loads(text)
        record["launch_s"] = time.perf_counter() - start
        out.append(record)
    return out


def check_rounds(doc: dict, checker: checks.Checker):
    attempted, failures = 0, []
    for records in doc["rounds"] + ([doc["untraced"]] if "untraced" in doc else []):
        for op, rec in zip(doc["ops"], records):
            for item, problem in checker.check(op, rec["out"]):
                attempted += 1
                if problem is not None:
                    failures.append((item, problem))
    return attempted, failures


def per_op_medians(doc: dict, key: str) -> dict[str, float]:
    return {op["name"]: statistics.median(r[i][key] for r in doc["rounds"])
            for i, op in enumerate(doc["ops"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "latticesec" / "__init__.py").is_file():
        print("error: no program source at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    checker = checks.Checker(oracle.load_reference())

    lattices = sorted({lat for w in workloads.WORKLOADS for lat in workloads.lattices(w)}
                      if trace else workloads.lattices(args.workload))
    launches = setup_launches(lattices, trace, SETUP_LAUNCHES // 2)
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds)]
    doc = json.loads(_worker(*run_args, *(["--trace"] if trace else []),
                             timeout=WORKER_TIMEOUT_S))
    launches += setup_launches(lattices, trace, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)

    attempted, failures = check_rounds(doc, checker)
    unexpected = [f for f in failures if not checks.known_fault(f[0])]
    if trace:
        metrics = {
            "import.latticesec_s": statistics.median(r["import_s"] for r in launches),
            "numfields.load_lattice_s": statistics.median(r["load_s"] for r in launches),
            "numfields.min_product_distance_s": statistics.median(
                r["min_product_distance_s"] for r in launches),
            **doc["layers"],
        }
        for kind in ("sum", "carve"):
            grown = json.loads(_worker("--peak", kind, timeout=LAUNCH_TIMEOUT_S))
            metrics["constellation.%s_peak_alloc_mb" % kind] = grown["peak_mb"]
    else:
        metrics = {
            "wall_s": sum(per_op_medians(doc, "wall_s").values()),
            "cpu_s": sum(per_op_medians(doc, "cpu_s").values()),
            "setup_s": statistics.median(r["launch_s"] for r in launches),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end" if not trace else "per_layer"]}
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": doc["facts"], "rounds": len(doc["rounds"]),
              "setup_launches": launches,
              "samples": {op["name"]: [[r[i]["wall_s"], r[i]["cpu_s"]] for r in doc["rounds"]]
                          for i, op in enumerate(doc["ops"])},
              "failures": dict(failures), "unexpected_failures": dict(unexpected),
              "result": result}
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    path = runs / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for item, problem in unexpected:
        print("UNEXPECTED FAILURE %s: %s" % (item, problem), file=sys.stderr)
    print("record: %s (%d rounds, %d known-fault items failed)"
          % (path.relative_to(ROOT), len(doc["rounds"]), len(failures) - len(unexpected)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
