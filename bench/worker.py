"""One workload process: a closed loop of ``drawdown_risk.cli.main`` calls.

One client, one process: each op starts when the previous one returned.
Whole cycles of the workload's ops run until the summed op latency reaches
``--seconds``.  Only ``main()`` is timed; the stdout checks run between ops
and the value recomputations after the loop, once peak RSS has been read.
With ``--trace-out`` the tracer is installed for every other cycle, starting
with the first; per-layer metrics come from the traced cycles and the
end-to-end figures and the tracing overhead from comparing the two kinds.

Usage: python3 bench/worker.py --spec SPEC.json --seconds S --seed N
       [--trace-out SPANS.json.gz]
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import second_route
import tracer as tracing
from probe import probe, speed_scale

from drawdown_risk import cli, market_bridge, path_engine, risk_measures, verify

#: Values of each surface op recomputed by a second route.
CELLS_PER_OP = 3

#: Hard stop for the loop, in multiples of --seconds, so a run always ends.
WALL_FACTOR = 4


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


class Loop:
    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.games = spec["games"]
        self.seed = seed % 2**64
        self.cycles: list[list[float]] = []  # main() latencies, one list per cycle
        self.probes: list[list[float]] = []  # machine-speed probe after each op
        self.cycle_values: list[int] = []
        self.idx = 0
        self.failed_ops: set[int] = set()
        self.samples: list[tuple] = []  # (op index, game, kind, K, phi, emitted)
        self.digests: dict[int, str] = {}

    def structural(self, idx: int, slot: int, op: dict, code: int, text: str) -> None:
        """Exit code, stdout shape and determinism right after the op; queue samples."""
        game = self.games[op["game"]]
        ok = code == 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        ok &= self.digests.setdefault(slot, digest) == digest
        values = None
        if ok:
            try:
                values = self._parse(idx, op, game, text)
            except (ValueError, IndexError):
                values = None
        if values is None:
            self.failed_ops.add(idx)
        else:
            self.cycle_values[-1] += values

    def _parse(self, idx: int, op: dict, game: dict, text: str) -> int | None:
        """Values the op produced, or None when its stdout fails a check."""
        cmd = op["cmd"]
        lines = text.splitlines()
        if cmd == "surface":
            rows = second_route.parse_surface(text, op["axes"])
            if rows is None or not second_route.sentinels_ok(
                    np.asarray(game["returns"]), op["measure"], rows):
                return None
            rng = np.random.default_rng([self.seed, idx])
            for cell in rng.choice(rows.shape[0], size=CELLS_PER_OP, replace=False):
                self.samples.append((idx, op["game"], op["measure"], op["K"],
                                     rows[cell, :-1], float(rows[cell, -1])))
            return rows.shape[0]
        if cmd == "eval":
            if len(lines) != 1:
                return None
            self.samples.append((idx, op["game"], op["measure"], op["K"], op["phi"], float(lines[0])))
            return 1
        if cmd == "converge":
            if lines[0] != "K,value" or len(lines) != op["Kmax"] + 1:
                return None
            for draws, line in enumerate(lines[1:], start=1):
                k, v = line.split(",")
                if int(k) != draws:
                    return None
                self.samples.append((idx, op["game"], "cur", draws, op["phi"], float(v)))
            return op["Kmax"]
        if cmd == "verify":
            ok, values = second_route.verify_output(game, op["samples"], lines)
        elif cmd == "check":
            ok, values = second_route.check_output(game, lines)
        else:
            ok, values = second_route.from_market_output(game, text)
        return values if ok else None

    def cycle(self) -> float:
        """Run every op once; return the summed main() time."""
        self.cycles.append([])
        self.probes.append([])
        self.cycle_values.append(0)
        for slot, op in enumerate(self.spec["ops"]):
            code, elapsed, text = run_op(op["argv"])
            self.cycles[-1].append(elapsed)
            self.structural(self.idx, slot, op, code, text)
            self.probes[-1].append(probe())
            self.idx += 1
        return sum(self.cycles[-1])

    def reference_latencies(self, cycles) -> list[float]:
        """main() latencies of the given cycles in reference seconds, per cycle's probes."""
        return [x * speed_scale(self.probes[c]) for c in cycles for x in self.cycles[c]]

    def recompute(self, checker: second_route.Checker) -> None:
        for idx, gid, kind, draws, phi, emitted in self.samples:
            if not checker.value_ok(gid, kind, draws, phi, emitted):
                self.failed_ops.add(idx)


def _cache_counts():
    return {
        "risk_measures.composition_cache_hit_ratio": risk_measures._composition_table.cache_info(),
        "risk_measures.digits_cache_hit_ratio": risk_measures._cached_digits.cache_info(),
    }


def _overhead(loop: Loop, traced: list[bool]) -> dict[str, float]:
    """Traced against untraced cycles, pairwise, so that drifts in machine speed cancel.

    Cycles alternate traced, untraced; the first pair is left out when there
    are more, because its traced cycle ran with cold caches.
    """
    pairs = [(a, a + 1) for a in range(0, len(traced) - 1, 2)]
    pairs = pairs[1:] if len(pairs) > 1 else pairs
    on = loop.reference_latencies([a for a, _ in pairs])
    off = loop.reference_latencies([b for _, b in pairs])
    return {
        "trace.overhead_ratio": sum(on) / sum(off) - 1.0,
        "trace.overhead_op_p50_s": statistics.median(on) - statistics.median(off),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    root = Path(__file__).resolve().parent.parent

    # every generated game must pass the structural check before it is used
    for gid, game in spec["games"].items():
        code, _, text = run_op(["check", game["path"]])
        ok, _ = second_route.check_output(game, text.splitlines())
        if code != 0 or not ok:
            raise SystemExit(f"generated game {gid} fails check:\n{text}")

    # with tracing, even cycles are traced and odd ones are not
    trace = tracing.Tracer() if args.trace_out else None
    mods = {"cli": cli, "risk_measures": risk_measures, "path_engine": path_engine,
            "verify": verify, "market_bridge": market_bridge}
    hits = {k: [0, 0] for k in _cache_counts()}
    loop = Loop(spec, args.seed)
    probe()  # the first probe in a process runs cold
    traced: list[bool] = []
    busy = 0.0
    deadline = time.monotonic() + WALL_FACTOR * args.seconds + 30
    while (busy < args.seconds or (trace is not None and len(traced) % 2)) and time.monotonic() < deadline:
        on = trace is not None and len(traced) % 2 == 0
        if on:
            before = _cache_counts()
            tracing.install(trace, mods)
        busy += loop.cycle()
        if on:
            trace.uninstall()
            for k, info in _cache_counts().items():
                hits[k][0] += info.hits - before[k].hits
                hits[k][1] += info.misses - before[k].misses
        traced.append(on)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if trace is not None:
        on = [c for c, t in enumerate(traced) if t]
        scale = speed_scale([x for c in on for x in loop.probes[c]])
        layers = tracing.layer_metrics(trace, len(on), hits, scale)
        layers.update(_overhead(loop, traced))
        trace.write(args.trace_out)

    checker = second_route.Checker(spec, root)
    loop.recompute(checker)
    plain = [c for c, on in enumerate(traced) if not on]
    raw = [x for c in plain for x in loop.cycles[c]]
    ref = loop.reference_latencies(plain)
    print(json.dumps({
        "attempted": loop.idx,
        "failed": len(loop.failed_ops),
        "cycles": len(traced),
        "traced_cycles": sum(traced),
        "values": sum(loop.cycle_values[c] for c in plain),
        "busy_s": sum(raw),
        "op_p50_s": statistics.median(raw),
        "busy_ref_s": sum(ref),
        "op_p50_ref_s": statistics.median(ref),
        "peak_rss_mb": peak_rss_mb,
        "checked_values": len(loop.samples),
        "disagreements": checker.disagreements,
        "layers": layers,
        "machine": machine_facts(),
        "latencies": loop.cycles,
        "traced": traced,
        "probes": loop.probes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
