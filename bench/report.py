"""Run every workload once and print the end-to-end and per-layer tables.

Usage, from the root of a checkout:

    python3 bench/report.py --seed N --seconds S [--trace]

Prints a Markdown table of the five end-to-end metrics for each workload;
with --trace also the per-layer table (traced runs, values per workload
cycle) and the tracing overhead.  Each cell comes from one run.py run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def table(results: dict[str, dict]) -> str:
    names = list(next(iter(results.values()))["metrics"])
    lines = ["| metric | unit | " + " | ".join(results) + " |",
             "|---|---|" + "---|" * len(results)]
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = [f"{r['metrics'][name]['value']:.6g}" for r in results.values()]
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    lines.append("| ops attempted / failed | | " + " | ".join(
        f"{r['attempted']} / {r['failed']}" for r in results.values()) + " |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(table({w: run(w, args.seed, args.seconds, 0) for w in workloads.NAMES}))
    if args.trace:
        print()
        print(table({w: run(w, args.seed, args.seconds, 1) for w in workloads.NAMES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
