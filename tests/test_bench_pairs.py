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
    lines = bench_pairs.summary_lines(workloads, {"replay_us_per_event": 0.25, "peak_rss_mib": 0.1},
                                       {"replay_us_per_event": "lower", "peak_rss_mib": "lower"})
    assert lines == [
        "local_sparse replay_us_per_event: parent 2.9 (IQR 0.1), change 2.1 (-27.6%), "
        "won 2, lost 1 of 3 pairs; within its 25% bound"
    ]


def test_summary_lines_state_the_gate_by_direction_and_bound():
    lower = {"setup_s": bench_pairs.summarize([1.0, 1.0, 1.2], [1.3, 1.2, 1.3], "lower")}
    higher = {"ratio": bench_pairs.summarize([0.5, 0.5, 0.5], [0.4, 0.4, 0.4], "higher")}
    # 1.0 -> 1.3 is 30% worse: beyond a 25% bound, inside a 35% one
    assert bench_pairs.summary_lines({"w": lower}, {"setup_s": 0.25}, {"setup_s": "lower"}) == [
        "w setup_s: parent 1 (IQR 0.1), change 1.3 (+30.0%), won 0, lost 3 of 3 pairs; "
        "worse by more than its 25% bound"
    ]
    assert bench_pairs.summary_lines({"w": lower}, {"setup_s": 0.35}, {"setup_s": "lower"})[0].endswith(
        "; within its 35% bound"
    )
    # for a metric where higher is better, a fall is what counts as worse
    assert bench_pairs.summary_lines({"w": higher}, {"ratio": 0.1}, {"ratio": "higher"})[0].endswith(
        "; worse by more than its 10% bound"
    )
    assert bench_pairs.summary_lines({"w": higher}, {"ratio": 0.1}, {"ratio": "lower"})[0].endswith(
        "; within its 10% bound"
    )


def test_benchmark_spec_reads_each_end_to_end_bound():
    seconds, better, bounds = bench_pairs.benchmark_spec()
    assert seconds > 0
    assert "replay_us_per_event" in bounds and "call_p99_us" not in bounds
    assert all(0 < b < 1 for b in bounds.values())
    assert all(better[name] in ("lower", "higher") for name in bounds)


def test_count_lines_name_each_count_that_differs():
    def pair(parent, change):
        return bench_pairs.summarize(parent, change, "lower")

    same = {
        "engine.rules_for.calls": pair([1.5, 1.5], [1.5, 1.5]),
        "channel_requests_per_event": pair([1.0, 1.0], [1.0, 1.0]),
        "trace.missing_hooks": pair([0, 0], [0, 0]),
        # times may differ, and so may a ratio
        "central.handle_request.self_us": pair([8.3, 8.1], [6.0, 6.2]),
        "central.guard_true_ratio": pair([0.4, 0.4], [0.5, 0.5]),
    }
    differ = dict(
        same,
        **{
            "lang.eval_expr.global.calls": pair([3.263, 3.263], [3.263, 3.264]),
            "trace.missing_hooks": pair([0, 0], [0, 1]),
        },
    )
    assert bench_pairs.count_lines({"sitting_dense": same, "quota_storm": differ}) == [
        "sitting_dense counts: all 3 the same on both sides in every pair",
        "quota_storm counts: 2 of 4 differ between the sides: lang.eval_expr.global.calls, trace.missing_hooks",
    ]
