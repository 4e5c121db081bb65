#!/usr/bin/env python3
"""Benchmark a git revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --rev HEAD~1 --workload sitting_dense \\
        --seeds 9900-9909 --out BENCH_n.json

The revision's committed files are extracted with ``git archive`` into a
temporary directory (``TMPDIR`` chooses where), so nothing is registered
in the repository and an interrupted run leaves nothing behind in it.
There is one pair per seed of ``--seeds``. Each pair runs
``perfbench/run.py`` once on the revision and once on the working tree,
for the ``run_seconds`` of ``BENCHMARK.json``; the side that runs first
alternates, the revision first in even pairs.

The report has, per workload and metric, the values of both sides in pair
order, their inclusive quartiles, the pairs the working tree won and lost
(by the metric's direction in ``BENCHMARK.json``) and the change of the
medians in %. Untraced runs go under ``final``, ``--trace 1`` runs under
``traced``; any other key of an existing ``--out`` file is kept. Once the
report is written, one line per workload and end-to-end metric goes to
stdout: both medians, the parent's interquartile range, the change of the
medians in %, the pairs won and lost, and whether the change's median is
worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json``. After a ``--trace 1`` run, one more line per workload
says whether every per-layer ``.calls`` count, ``channel_requests_per_event``
and ``trace.missing_hooks`` read the same on both sides in every pair, and
names each that did not: a change that does the same work keeps them all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, dest: Path) -> str:
    """Write the committed files of `rev` under `dest`; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = dest / "rev.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last output line is the JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{tree}: no result line from {' '.join(cmd)}")
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def benchmark_spec() -> tuple:
    """The run length, each metric's direction and the bound of each
    end-to-end metric, in order, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec["run_seconds"], better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(parent: list, change: list, better: str) -> dict:
    def quartiles(values):
        if len(values) < 2:
            return [values[0]] * 3
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q1, 6), round(q2, 6), round(q3, 6)]

    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "change_better": sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0),
        "change_worse": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "median_change_pct": round(100 * (c_med - p_med) / p_med, 1) if p_med else 0.0,
    }


def summary_lines(workloads: dict, bounds: dict, better: dict) -> list:
    """One line per workload and metric of `bounds`: the medians of both
    sides, the parent's interquartile range, the change of the medians, the
    pairs the change won and lost, and whether the change's median is worse
    than the parent's by more than the metric's bound, a fraction of the
    parent's median."""
    lines = []
    for workload, summaries in workloads.items():
        for name, bound in bounds.items():
            s = summaries.get(name)
            if s is None:
                continue
            q1, parent, q3 = s["parent_q1_median_q3"]
            change = s["change_q1_median_q3"][1]
            sign = 1 if better[name] == "lower" else -1
            verdict = "worse by more than" if sign * (change - parent) > bound * abs(parent) else "within"
            lines.append(f"{workload} {name}: parent {parent:g} (IQR {round(q3 - q1, 6):g}), "
                         f"change {change:g} ({s['median_change_pct']:+.1f}%), "
                         f"won {s['change_better']}, lost {s['change_worse']} of {len(s['parent'])} pairs; "
                         f"{verdict} its {bound:.0%} bound")
    return lines


# traced metrics that count work, not time, beside the per-layer `.calls`
COUNTS = ("channel_requests_per_event", "trace.missing_hooks")


def count_lines(workloads: dict) -> list:
    """One line per workload: whether each count of a traced run, every
    `.calls` metric and those of COUNTS, read the same on both sides in
    every pair, or which did not."""
    lines = []
    for workload, summaries in workloads.items():
        names = sorted(n for n in summaries if n.endswith(".calls") or n in COUNTS)
        differ = [n for n in names if summaries[n]["parent"] != summaries[n]["change"]]
        if differ:
            lines.append(f"{workload} counts: {len(differ)} of {len(names)} differ between the sides: {', '.join(differ)}")
        else:
            lines.append(f"{workload} counts: all {len(names)} the same on both sides in every pair")
    return lines


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", required=True, help="the revision to compare the working tree with")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, one seed per pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds, better, bounds = benchmark_spec()

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sha = extract(args.rev, scratch)
        sides = {"parent": scratch / "tree", "change": ROOT}
        workloads = {}
        all_correct = True
        for workload in args.workload:
            values = {"parent": {}, "change": {}}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], workload, seed, seconds, args.trace)
                    all_correct = all_correct and result["correct"] and result["failed"] == 0
                    for name, metric in result["metrics"].items():
                        values[side].setdefault(name, []).append(round(metric["value"], 6))
                    replay = result["metrics"].get("replay_us_per_event", {}).get("value", "-")
                    print(f"{workload} seed {seed} {side}: replay_us_per_event {replay} "
                          f"correct {result['correct']} failed {result['failed']}", file=sys.stderr, flush=True)
            workloads[workload] = {
                name: summarize(values["parent"][name], values["change"][name], better[name])
                for name in values["parent"] if name in values["change"]
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("what", f"dcmon benchmark (perfbench/run.py), {args.rev} against the working tree, in alternating pairs")
    doc.setdefault("host", f"Python {platform.python_version()}, {platform.system()}, {os.cpu_count()} CPUs")
    doc.setdefault("metric_fields", "per metric: parent and change values in pair order, [q1, median, q3] of each "
                   "side (inclusive quartiles), the pairs the change won and lost, and the median change in %")
    doc["traced" if args.trace else "final"] = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace {args.trace}",
        "protocol": f"{len(seeds)} pairs per workload, one seed per pair, the parent first in even pairs",
        "parent": sha,
        "seeds": args.seeds,
        "all_correct": all_correct,
        "workloads": workloads,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    lines = summary_lines(workloads, bounds, better)
    if args.trace:
        lines += count_lines(workloads)
    print("\n".join(lines))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
