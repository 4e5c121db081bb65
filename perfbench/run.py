#!/usr/bin/env python3
"""Run one dcmon benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sitting_dense --seed 1 --seconds 10 --trace 0

Human-readable lines come first: the metrics with their sample counts, the
paper's monitored-against-unmonitored table, and with ``--trace 1`` the
self time of every layer. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every replay passed the correctness gate.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pin_to_one_cpu() -> None:
    """Run the whole benchmark on one CPU, so every replay runs where the
    calibration loop around it ran: on a shared host each virtual CPU is
    slowed by different neighbours at different times."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dcmon").is_dir():
        print(f"dcmon sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.measure import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    outcome = run_workload(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    for line in outcome.lines:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} {value:.6f} {unit}")
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
