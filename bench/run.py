"""Benchmark of the drawdown-risk CLI on four seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grid-terminal, grid-drawdown, horizon-sweep, verify-battery (see
workloads.py for what each one stresses).  The run generates its inputs from
the seed under .bench_work/, times a fresh interpreter importing the CLI and
loading them (setup_s), then runs a closed loop of ``cli.main(argv)`` calls in
one worker process with single-threaded BLAS and checks every op's output.

--trace 0 prints the end-to-end metrics.  --trace 1 traces every other
cycle of the loop and prints the per-layer metrics (per traced cycle) and the
tracing overhead (traced against untraced cycles).  The last stdout line is the result
object; the line before it, starting with '#', holds the machine facts, the
(N, M, K) mix, the inadmissible share of each grid and any disagreement.
The full record and the spans are written under .bench_work/.
"""

from __future__ import annotations

import os
import sys

#: Single-threaded BLAS here and in every child, set before numpy loads.
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from probe import probe, speed_scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters started per run; setup_s is their median wall time.
SETUP_REPS = 5

#: Machine-speed probes taken before and after each set-up interpreter.
SPEED_PROBES = 3

#: Every child is stopped this long after the run started.
RUN_BUDGET_S = 170.0

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def _child(cmd, env, deadline) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def setup_once(env, files, importtime: bool, deadline) -> dict:
    """One fresh interpreter importing the CLI and loading the inputs."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "setup_probe.py"), *files]
    speed = [probe() for _ in range(SPEED_PROBES)]
    start = time.perf_counter()
    proc = _child(cmd, env, deadline)
    out = json.loads(proc.stdout.splitlines()[-1])
    out["wall_s"] = time.perf_counter() - start
    speed += [probe() for _ in range(SPEED_PROBES)]
    out["scale"] = speed_scale(speed)
    if importtime:
        out["scipy_import_s"] = 1e-6 * sum(
            int(us) for us, mod in _IMPORTTIME.findall(proc.stderr)
            if mod == "scipy" or mod.startswith("scipy."))
    return out


def run_worker(env, work: Path, seed: int, seconds: float, spans, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(work / "spec.json"),
           "--seconds", repr(seconds), "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace-out", str(spans)]
    return json.loads(_child(cmd, env, deadline).stdout.splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    missing = [p for p in ("src/drawdown_risk/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a drawdown-risk checkout, missing {missing}\n")
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(args.workload, args.seed, work / "inputs")
    (work / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    files = sorted({g["path"] for g in spec["games"].values()})
    traced = bool(args.trace)

    setups = [setup_once(env, files, traced, deadline) for _ in range(SETUP_REPS)]
    base = run_worker(env, work, args.seed, args.seconds, work / "spans.json.gz" if traced else None,
                      deadline)
    if not traced:
        metrics = {
            "setup_s": _metric(statistics.median(s["wall_s"] * s["scale"] for s in setups), "s"),
            "evals_per_s": _metric(base["values"] / base["busy_ref_s"], "1/s"),
            "op_p50_s": _metric(base["op_p50_ref_s"], "s"),
            "peak_rss_mb": _metric(base["peak_rss_mb"], "MB"),
            "ok_ratio": _metric(1.0 - base["failed"] / base["attempted"], "ratio"),
        }
    else:
        metrics = {
            name: _metric(statistics.median(s[key] * s["scale"] for s in setups), "s")
            for name, key in (("setup.import_s", "import_s"),
                              ("setup.scipy_import_s", "scipy_import_s"),
                              ("trade_core.load_s", "load_s"))
        }
        for name, value in base["layers"].items():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else (
                "bytes" if name.endswith("_bytes") else "count")
            metrics[name] = _metric(value, unit)

    attempted, failed = base["attempted"], base["failed"]
    info = {
        "workload": args.workload, "seed": args.seed, "why": spec["why"],
        "machine": base["machine"], "mix": spec["mix"],
        "inadmissible_share": {g: v["inadmissible_share"] for g, v in spec["games"].items()
                               if v["inadmissible_share"] is not None},
        "run": {key: base[key] for key in ("attempted", "failed", "cycles", "traced_cycles",
                                           "values", "busy_s", "op_p50_s", "busy_ref_s",
                                           "op_p50_ref_s", "checked_values", "disagreements")},
        "raw_seconds": {"setup_s": statistics.median(s["wall_s"] for s in setups),
                        "evals_per_s": base["values"] / base["busy_s"],
                        "op_p50_s": base["op_p50_s"]},
        "setup_reps": setups,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "run.json").write_text(json.dumps({"info": info, "result": result, "raw": base}, indent=1))
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)
