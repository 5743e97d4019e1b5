"""Outside-in tracer: spans from wrappers around the program's public functions.

Nothing inside the program changes.  Each target is a module (or class)
attribute as seen by its caller, e.g. ``risk_measures.linear_prefix_blocks``
is the name ``risk_measures`` looks up, so only those calls are timed.
Spans (name, start, end, parent) stay in memory and are written out at the
end; self time is a span's duration minus that of its direct children.
Counts are taken at the same boundaries from arguments and return values.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time
from collections import defaultdict

_perf = time.perf_counter


def _draws_index(fn) -> int:
    return list(inspect.signature(fn).parameters).index("draws")


def _draws(pos: int, args, kwargs) -> int:
    return kwargs["draws"] if "draws" in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, owner, attr: str, name: str, on_return=None):
        """Replace ``owner.attr`` by a wrapper recording one span per call."""
        orig = owner.__dict__[attr]
        nid = self._name(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = _perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self.swap(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str):
        """Generator target: one span per ``next`` so consumers may interleave."""
        orig = owner.__dict__[attr]
        nid = self._name(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            inner = orig(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append([nid, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                start = _perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = _perf()
                    stack.pop()
                    spans[idx][1] = start
                    spans[idx][2] = end
                yield item

        self.swap(owner, attr, wrapper)

    def swap(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``uninstall``."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def counter(self, key: str, fn):
        """on_return hook adding fn(args, kwargs, result) to counter ``key``."""

        def hook(args, kwargs, result):
            self.counts[key] += fn(args, kwargs, result)

        return hook

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for idx, (nid, start, end, _) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl"] += end - start
            row["self"] += end - start - child[idx]
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON: the name table and [name, start, end, parent] rows."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(tracer: Tracer, mods: dict) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    cli, rm, pe, vf, mb = (mods[k] for k in ("cli", "risk_measures", "path_engine", "verify", "market_bridge"))
    t = tracer

    def states(fn):
        pos = _draws_index(fn)

        def count(args, kwargs, _):
            n = args[0].n_periods
            return math.comb(_draws(pos, args, kwargs) + n - 1, n - 1)

        return count

    def paths(fn):
        pos = _draws_index(fn)
        return lambda args, kwargs, _: args[0].n_periods ** _draws(pos, args, kwargs)

    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "load_trade_matrix", "cli.load_trade_matrix")
    def surface_counts(args, kwargs, result):
        t.counts["cli.grid_points"] += len(result.rows)
        t.counts["cli.sentinel_points"] += sum(math.isinf(row[-1]) for row in result.rows)

    t.wrap(cli, "surface_result", "cli.surface_result", surface_counts)
    t.wrap(cli.SurfaceResult, "to_csv", "cli.to_csv", t.counter(
        "cli.csv_bytes", lambda a, k, r: len(r)))
    t.wrap(cli, "check_no_risk_free", "trade_core.check_no_risk_free")
    t.wrap(vf, "check_no_risk_free", "trade_core.check_no_risk_free")
    t.wrap(mb, "build_trade_matrix", "market_bridge.build_trade_matrix")
    t.wrap(mb, "check_arbitrage", "market_bridge.check_arbitrage")

    t.wrap(rm, "evaluate_measure", "risk_measures.evaluate_measure")
    t.wrap(rm, "require_interior", "trade_core.require_interior")
    for name in ("rho_down", "rho_down_x", "updown_coefficients",
                 "small_s_down_verified", "hyperplane_directions"):
        fn = getattr(rm, name)
        t.wrap(rm, name, f"risk_measures.{name}", t.counter("risk_measures.count_states", states(fn)))
    for name in ("drawdown_coefficients", "rho_cur_x", "d_cur_second_approx",
                 "expected_downtrade", "expected_uptrade", "expected_current_drawdown",
                 "expected_runup", "small_s_cur_verified"):
        fn = getattr(rm, name)
        t.wrap(rm, name, f"risk_measures.{name}", t.counter("path_engine.block_paths", paths(fn)))
    for name in ("rho_cur", "d_first_approx", "u_expect", "d_second_approx",
                 "d_cur_first_approx", "u_run_expect"):
        t.wrap(rm, name, f"risk_measures.{name}")
    for name in ("linear_prefix_blocks", "topping_from_prefix", "log_hpr_rows"):
        t.wrap(rm, name, f"path_engine.{name}")

    t.wrap_generator(pe, "enumerate_paths", "path_engine.enumerate_paths")
    for name in ("twr_segment", "twr_topping_point", "linear_topping_point", "uptrade_log",
                 "downtrade_log", "current_drawdown_log", "runup_log"):
        t.wrap(pe, name, f"path_engine.{name}")

    for suite in SUITES:
        t.wrap(vf, f"suite_{suite}", f"verify.{suite}", t.counter(
            "verify.checks", lambda a, k, r: r.passed + r.failed))
    # the convexity and monotonicity suites call the measures through this tuple
    t.swap(vf, "_MEASURES", tuple(getattr(rm, fn.__name__) for fn in vf._MEASURES))


SUITES = ("identities", "ordering", "convexity", "homogeneity", "monotonicity",
          "small_s", "topping", "span")

PATHWISE = ("enumerate_paths", "twr_segment", "twr_topping_point", "linear_topping_point",
            "uptrade_log", "downtrade_log", "current_drawdown_log", "runup_log")

#: Per-layer time metrics: metric name -> (span names, "self" or "incl").
TIME_METRICS = {
    "cli.main_self_s": (["cli.main"], "self"),
    "cli.input_load_s": (["cli.load_trade_matrix"], "self"),
    "cli.surface_self_s": (["cli.surface_result"], "self"),
    "cli.to_csv_s": (["cli.to_csv"], "self"),
    "risk_measures.evaluate_self_s": (["risk_measures.evaluate_measure"], "self"),
    "trade_core.interior_s": (["trade_core.require_interior"], "self"),
    "risk_measures.rho_down_s": (["risk_measures.rho_down"], "self"),
    "risk_measures.rho_down_x_s": (["risk_measures.rho_down_x"], "self"),
    "risk_measures.updown_s": (["risk_measures.updown_coefficients"], "self"),
    "risk_measures.coef_form_s": ([f"risk_measures.{n}" for n in (
        "d_first_approx", "u_expect", "d_second_approx", "d_cur_first_approx",
        "u_run_expect", "d_cur_second_approx", "hyperplane_directions")], "self"),
    "path_engine.prefix_s": (["path_engine.linear_prefix_blocks"], "self"),
    "path_engine.topping_s": (["path_engine.topping_from_prefix"], "self"),
    "path_engine.log_rows_s": (["path_engine.log_hpr_rows"], "self"),
    "risk_measures.drawdown_coef_s": (["risk_measures.drawdown_coefficients"], "self"),
    "risk_measures.rho_cur_s": (["risk_measures.rho_cur"], "self"),
    "risk_measures.rho_cur_x_s": (["risk_measures.rho_cur_x"], "self"),
    "risk_measures.path_expect_s": ([f"risk_measures.expected_{n}" for n in (
        "downtrade", "uptrade", "current_drawdown", "runup")], "self"),
    "risk_measures.small_s_check_s": (["risk_measures.small_s_down_verified",
                                       "risk_measures.small_s_cur_verified"], "self"),
    "path_engine.pathwise_s": ([f"path_engine.{n}" for n in PATHWISE], "self"),
    **{f"verify.{s}_s": ([f"verify.{s}"], "incl") for s in SUITES},
    "trade_core.check_s": (["trade_core.check_no_risk_free"], "incl"),
    "market_bridge.build_s": (["market_bridge.build_trade_matrix"], "self"),
    "market_bridge.arbitrage_s": (["market_bridge.check_arbitrage"], "incl"),
}

COUNT_METRICS = ("cli.csv_bytes", "cli.grid_points", "cli.sentinel_points",
                 "risk_measures.count_states", "path_engine.block_paths", "verify.checks")


def layer_metrics(tracer: Tracer, cycles: int, cache_delta: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics per traced cycle, plus cache hit ratios over the run.

    Span seconds are multiplied by ``scale``, the raw-to-reference factor.
    """
    totals = tracer.totals()
    counts = tracer.counts
    out = {metric: scale * sum(totals[n][which] for n in names) / cycles
           for metric, (names, which) in TIME_METRICS.items()}
    for metric in COUNT_METRICS:
        out[metric] = counts[metric] / cycles
    out["trade_core.interior_checks"] = totals["trade_core.require_interior"]["calls"] / cycles
    pathwise = sum(totals[f"path_engine.{n}"]["calls"] for n in PATHWISE[1:])
    out["path_engine.pathwise_calls"] = (pathwise + counts["path_engine.enumerate_paths.calls"]) / cycles
    for metric, (hits, misses) in cache_delta.items():
        out[metric] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.spans"] = len(tracer.spans) / cycles
    return out
