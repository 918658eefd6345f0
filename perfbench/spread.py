#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and spread.

    python3 perfbench/spread.py --runs 10 --first-seed 1
    python3 perfbench/spread.py --workloads sim-gen2 --runs 5 --seconds 10

Each run is ``perfbench/run.py`` with its own seed.  For every metric the
script prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
A spread at or above a third of the bound is flagged, ``setup_s`` included,
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    status = 0
    for workload in args.workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds[name]
            flag = ""
            if not spread < bound / 3:
                flag = "  <-- spread >= bound/3"
                status = 1
            print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound:6g} "
                  f"{unit}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
