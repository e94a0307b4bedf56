"""Per-layer tracing from outside the program.

Wraps public functions of latticesec's modules in place, in every
module namespace that holds them (so `from .x import f` call sites are
traced too), and records spans: a function's self time is its duration
minus the time its traced callees took. Only the measured functions
are wrapped; their helpers count toward the caller's self time.
"""

from __future__ import annotations

import math
import sys
import time

# (module, function) pairs timed as spans.
SPANS = (
    ("cli", "main"),
    ("conjecture", "verify_conjecture"),
    ("ratpoly", "squarefree_part"),
    ("ratpoly", "sturm_chain"),
    ("ratpoly", "count_roots_open"),
    ("ratpoly", "isolate_roots_open"),
    ("ratpoly", "refine_isolating_interval"),
    ("zpoly", "even_unimodular_to_zpoly"),
    ("zpoly", "secrecy_function"),
    ("zpoly", "secrecy_gain"),
    ("theta", "eval_z"),
    ("theta_series", "theta_series_oracle"),
    ("constellation", "inverse_norm_power_sum"),
    ("constellation", "carve_lowest_energy"),
    ("constellation", "reports_to_csv"),
    ("wiretap", "compare_report"),
)
# Functions whose calls are counted but not timed.
COUNTED = (("ratpoly", "divmod_poly"), ("theta", "eval_z"))


def _span_name(name: str, args, kwargs) -> str:
    if name == "constellation.inverse_norm_power_sum":
        p_lim = kwargs.get("p_lim", args[2] if len(args) > 2 else math.inf)
        if math.isfinite(p_lim):
            return "constellation.capped_sum"
    return name


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.box_points = 0       # whole-box points of uncapped sums
        self.kept_points = 0      # codewords kept by capped sums
        self.vectors = 0          # lattice vectors the theta oracle counted
        self.max_degree = (-1, 0.0)   # (degree, seconds) of verify_conjecture
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, span: bool, counted: bool):
        def wrapper(*args, **kwargs):
            if counted:
                self.calls[name] = self.calls.get(name, 0) + 1
            if not span:
                return fn(*args, **kwargs)
            label = _span_name(name, args, kwargs)
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                self.self_s[label] = self.self_s.get(label, 0.0) + duration - frame[1]
            self._account(label, args, result, duration)
            return result
        return wrapper

    def _account(self, label, args, result, duration):
        if label == "constellation.inverse_norm_power_sum":
            self.box_points += (2 * result.m + 1) ** result.n
        elif label == "constellation.capped_sum":
            self.kept_points += result.size
        elif label == "theta_series.theta_series_oracle":
            self.vectors += sum(count for _, count in result)
        elif label == "conjecture.verify_conjecture" and args[0].degree >= self.max_degree[0]:
            self.max_degree = (args[0].degree, duration)

    def install(self) -> None:
        """Replace each traced function in every latticesec namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "latticesec" or n.startswith("latticesec.")]
        for mod, fn in dict.fromkeys(SPANS + COUNTED):
            original = getattr(sys.modules["latticesec." + mod], fn)
            name = "%s.%s" % (mod, fn)
            wrapper = self._wrap(name, original, (mod, fn) in SPANS,
                                 (mod, fn) in COUNTED)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, named as in BENCHMARK.json."""
        out = {}
        for mod, fn in SPANS:
            out["%s.%s_s" % (mod, fn)] = self.self_s.get("%s.%s" % (mod, fn), 0.0)
        out["constellation.capped_sum_s"] = self.self_s.get("constellation.capped_sum", 0.0)
        out["conjecture.verify_conjecture_max_s"] = self.max_degree[1]
        out["ratpoly.divmod_poly_calls"] = self.calls.get("ratpoly.divmod_poly", 0)
        out["theta.eval_z_calls"] = self.calls.get("theta.eval_z", 0)
        out["theta_series.vectors_per_s"] = self.vectors / out["theta_series.theta_series_oracle_s"]
        out["constellation.box_points_per_s"] = (
            self.box_points / out["constellation.inverse_norm_power_sum_s"])
        out["constellation.capped_points_per_s"] = (
            self.kept_points / out["constellation.capped_sum_s"])
        return out
