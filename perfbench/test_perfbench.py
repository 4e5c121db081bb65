"""Self-tests of the benchmark, on traces shrunk to a few dozen events.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gate
from perfbench.measure import CONFIG, run_workload
from perfbench.tracing import HOOKS
from perfbench.workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.02


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_trace_length_does_not_depend_on_seed():
    for workload in WORKLOADS.values():
        a, b = generate(workload, 1), generate(workload, 2)
        assert {k: len(v) for k, v in a.items()} == {k: len(v) for k, v in b.items()}
        assert a != b
        assert generate(workload, 1) == a


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_named_metric(name, traced):
    outcome = run_workload(name, seed=5, seconds=0.01, traced=traced, scale=TINY)
    assert outcome.correct, outcome.lines
    assert outcome.failed == 0 and outcome.attempted >= 1
    declared = _declared("per_layer" if traced else "end_to_end")
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == declared
    line = json.loads(outcome.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_local_sparse_sends_no_channel_requests():
    outcome = run_workload("local_sparse", seed=5, seconds=0.01, traced=True, scale=TINY)
    assert outcome.metrics["channel_requests_per_event"][0] == 0
    assert outcome.metrics["channel.request.calls"][0] == 0
    assert outcome.metrics["central.guard_true_ratio"][0] == 0


def test_flipped_decision_counts_as_failure():
    from dcmon.corpus import compile_corpus_policy, oracle_verdicts
    from dcmon.sim import parse_trace, run

    events = generate(WORKLOADS["quota_storm"], 3, TINY)["gap"]
    trace = parse_trace("\n".join(json.dumps(e) for e in events))
    expected = oracle_verdicts("MsgTimeLmt", trace, CONFIG)
    good = run(trace, compile_corpus_policy("MsgTimeLmt", CONFIG))
    bad = copy.deepcopy(good)
    flip = bad.verdicts[0]
    flip.decision = "Blocked" if flip.decision == "Allowed" else "Allowed"

    tally = gate.Tally()
    tally.record("good", gate.check_decisions(good, expected))
    tally.record("bad", gate.check_decisions(bad, expected))
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 1, 0.5)
    assert "differ from the oracle" in tally.reasons[0]


def test_missing_hook_reads_zero():
    hooks = tuple(h for h in HOOKS if h[0] != "lang.eval_expr.app")
    hooks += (("lang.eval_expr.app", "dcmon.local_monitor", "no_such_function"),)
    outcome = run_workload("sitting_dense", seed=5, seconds=0.01, traced=True, scale=TINY, hooks=hooks)
    assert outcome.correct
    assert outcome.metrics["lang.eval_expr.app.calls"][0] == 0
    assert outcome.metrics["lang.eval_expr.app.us"][0] == 0
    assert outcome.metrics["trace.missing_hooks"][0] == 1
    assert any("dcmon.local_monitor.no_such_function" in line for line in outcome.lines)
    assert outcome.metrics["lang.eval_expr.global.calls"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
