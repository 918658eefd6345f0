#!/usr/bin/env python3
"""Eugene's end-to-end benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload infer-router --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is split
into an untraced and a traced half and the metrics are the per-layer ones
(see ``perfbench/README.md``).  Lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: BLAS/OpenMP pools are pinned to one thread so that numpy's own threads
#: never compete with the serving threads on a small box; set before numpy
#: is imported, inherited by replica child processes.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

WORKLOADS = ("infer-router", "classify-proc", "des-isolation", "sim-gen2")

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
