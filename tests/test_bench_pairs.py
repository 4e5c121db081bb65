"""The pure helpers of scripts/bench_pairs.py: seed ranges and pair summaries."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds_range_and_single():
    assert bench_pairs.parse_seeds("9980-9989") == list(range(9980, 9990))
    assert len(bench_pairs.parse_seeds("9980-9989")) == 10
    assert bench_pairs.parse_seeds("5") == [5]


def test_summarize_counts_ties_for_neither_side():
    s = bench_pairs.summarize([10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 10.0], "lower")
    assert (s["change_better"], s["change_worse"]) == (1, 1)
    assert s["median_change_pct"] == 0.0
    assert s["parent"] == [10.0, 10.0, 10.0, 10.0] and s["change"] == [9.0, 10.0, 11.0, 10.0]


def test_summarize_honours_higher_is_better():
    parent, change = [0.5, 0.5, 0.5], [0.6, 0.4, 0.7]
    higher = bench_pairs.summarize(parent, change, "higher")
    lower = bench_pairs.summarize(parent, change, "lower")
    assert (higher["change_better"], higher["change_worse"]) == (2, 1)
    assert (lower["change_better"], lower["change_worse"]) == (1, 2)
    assert higher["median_change_pct"] == lower["median_change_pct"] == 20.0


def test_summarize_quartiles():
    one = bench_pairs.summarize([3.5], [2.25], "lower")
    assert one["parent_q1_median_q3"] == [3.5, 3.5, 3.5]
    assert one["change_q1_median_q3"] == [2.25, 2.25, 2.25]
    five = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5, "lower")
    assert five["parent_q1_median_q3"] == [2.0, 3.0, 4.0]


def test_summary_lines_name_medians_and_pairs():
    workloads = {
        "local_sparse": {
            "replay_us_per_event": bench_pairs.summarize([2.8, 2.9, 3.0], [2.0, 3.1, 2.1], "lower"),
            "gc.collections": bench_pairs.summarize([1.0], [1.0], "lower"),
        }
    }
    lines = bench_pairs.summary_lines(workloads, ["replay_us_per_event", "peak_rss_mib"])
    assert lines == ["local_sparse replay_us_per_event: parent 2.9, change 2.1 (-27.6%), won 2, lost 1 of 3 pairs"]
