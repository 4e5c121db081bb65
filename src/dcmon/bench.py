"""Latency and state-size benchmarking.

For each selected policy the same trace is replayed monitored and
unmonitored, `repetitions` times each, and per-event wall-clock latencies
are averaged over the events the policy actually instruments (other events
would dilute both legs equally and hide the signal). Decisions must be
identical across repetitions; only timing varies. The absolute numbers are
host-dependent; the meaningful output is the table shape and the relative
ordering of policies.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .config import DEFAULT_CONFIG, SimConfig
from .central_monitor import state_size
from .corpus import CORPUS_IDS, UnknownPolicyId, compile_corpus_policy
from .engine import CompiledPolicy, Locality
from .sim import RunResult, TraceEvent, run, run_unmonitored


MIN_REPETITIONS = 30


class BenchError(Exception):
    pass


@dataclass
class BenchRow:
    policy_id: str
    locality: str
    events_measured: int
    unmonitored_ms: float
    monitored_ms: float
    overhead_pct: Optional[float]
    unmonitored_trace_ms: float
    monitored_trace_ms: float
    channel_messages: int
    blocked: int


@dataclass
class BenchReport:
    repetitions: int
    trace_label: str
    trace_events: int
    rows: List[BenchRow] = field(default_factory=list)
    memory_rows: Dict[str, dict] = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "repetitions": self.repetitions,
            "trace": {"label": self.trace_label, "events": self.trace_events},
            "rows": [
                {
                    "policy": r.policy_id,
                    "locality": r.locality,
                    "events_measured": r.events_measured,
                    "unmonitored_ms": r.unmonitored_ms,
                    "monitored_ms": r.monitored_ms,
                    "overhead_pct": r.overhead_pct,
                    "unmonitored_trace_ms": r.unmonitored_trace_ms,
                    "monitored_trace_ms": r.monitored_trace_ms,
                    "channel_messages": r.channel_messages,
                    "blocked": r.blocked,
                }
                for r in self.rows
            ],
            "memory": self.memory_rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


def _instrumented_calls(cp: CompiledPolicy) -> set:
    return {(e.pattern.api_namespace, e.pattern.method) for e in cp.events}


def _measured_mean_ns(result: RunResult, calls: set, trace: List[TraceEvent]) -> Tuple[int, float]:
    samples = [
        v.latency_ns for v, ev in zip(result.verdicts, trace) if ev.api.key in calls
    ]
    if not samples:
        return 0, 0.0
    return len(samples), statistics.fmean(samples)


def run_bench(
    policy_ids: Sequence[str],
    trace: List[TraceEvent],
    config: SimConfig = DEFAULT_CONFIG,
    repetitions: int = 30,
    trace_label: str = "trace",
) -> BenchReport:
    if repetitions < MIN_REPETITIONS:
        raise BenchError(f"repetitions must be at least {MIN_REPETITIONS}")
    for pid in policy_ids:
        if pid not in CORPUS_IDS:
            raise UnknownPolicyId(pid)
    report = BenchReport(repetitions=repetitions, trace_label=trace_label, trace_events=len(trace))

    for pid in policy_ids:
        cp = compile_corpus_policy(pid, config)
        calls = _instrumented_calls(cp)
        if not any(ev.api.key in calls for ev in trace):
            raise BenchError(f"trace never exercises the events monitored by {pid}")

        mon_means: List[float] = []
        mon_walls: List[float] = []
        decisions: Optional[List[str]] = None
        measured = 0
        final: Optional[RunResult] = None
        channel_messages = 0
        for _ in range(repetitions):
            w0 = time.perf_counter_ns()
            res = run(trace, cp, config, measure_latency=True)
            mon_walls.append((time.perf_counter_ns() - w0) / 1e6)
            measured, mean_ns = _measured_mean_ns(res, calls, trace)
            mon_means.append(mean_ns)
            if decisions is None:
                decisions = res.decisions()
            elif res.decisions() != decisions:
                raise BenchError(f"{pid}: decisions changed between repetitions")
            final = res
            channel_messages = len(res.channel_entries)

        unmon_means: List[float] = []
        unmon_walls: List[float] = []
        for _ in range(repetitions):
            w0 = time.perf_counter_ns()
            res = run_unmonitored(trace, config, measure_latency=True)
            unmon_walls.append((time.perf_counter_ns() - w0) / 1e6)
            _, mean_ns = _measured_mean_ns(res, calls, trace)
            unmon_means.append(mean_ns)

        unmon_ms = statistics.fmean(unmon_means) / 1e6
        mon_ms = statistics.fmean(mon_means) / 1e6
        overhead = ((mon_ms - unmon_ms) / unmon_ms * 100.0) if unmon_ms > 0 else None
        local_only = all(r.locality is Locality.LOCAL_ONLY for r in cp.rules)
        if local_only and channel_messages:
            raise BenchError(f"{pid}: locality soundness violated, LocalOnly run produced channel traffic")
        locality = Locality.LOCAL_ONLY.value if local_only else Locality.NEEDS_GLOBAL.value
        report.rows.append(
            BenchRow(
                policy_id=pid,
                locality=locality,
                events_measured=measured,
                unmonitored_ms=unmon_ms,
                monitored_ms=mon_ms,
                overhead_pct=overhead,
                unmonitored_trace_ms=statistics.fmean(unmon_walls),
                monitored_trace_ms=statistics.fmean(mon_walls),
                channel_messages=channel_messages,
                blocked=decisions.count("Blocked") if decisions else 0,
            )
        )
        assert final is not None
        report.memory_rows[pid] = state_size(final.global_state)
    return report


def render_table(doc: dict) -> str:
    headers = ("Policy", "Locality", "Time (ms) unmonitored", "Time (ms) monitored", "Overhead (%)")
    rows = []
    for r in doc["rows"]:
        overhead = f"{r['overhead_pct']:.2f}%" if r["overhead_pct"] is not None else "n/a"
        rows.append(
            (
                r["policy"],
                r["locality"],
                f"{r['unmonitored_ms']:.6f}",
                f"{r['monitored_ms']:.6f}",
                overhead,
            )
        )
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append(
        f"repetitions={doc['repetitions']}  trace={doc['trace']['label']} ({doc['trace']['events']} events)"
    )
    lines.append("")
    lines.append("Monitor state:")
    for pid in sorted(doc["memory"]):
        mem = doc["memory"][pid]
        vars_part = ", ".join(
            f"{name}[{row['kind']}:{row['elements']}]" for name, row in sorted(mem["vars"].items())
        )
        lines.append(f"  {pid}: total_bytes={mem['total_bytes']} vars: {vars_part or '(none)'}")
    return "\n".join(lines) + "\n"
