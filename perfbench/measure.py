"""Measurement loop of the dcmon benchmark.

One run replays one workload for a fixed time. A pass replays every job of
the workload once through ``dcmon.sim.run``; the next replay starts when
the previous one returns (a closed loop from one process). Every replay is
checked by the correctness gate outside the timed region.

Set-up, the time to turn the inputs into runnable form, is repeated
``SETUPS`` times and reported as a median. Every time is rescaled to a
reference host speed (see ``calibrate``). After set-up the benchmark moves
its own objects (traces, oracles, policies) out of the garbage collector's
view, and it collects garbage before each timed replay: the collections
inside a replay then fall at the same points in every pass and scan only
what the program allocated. A traced run alternates untraced and traced
passes, so the tracing overhead is measured on the same host state as the
per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from dcmon.central_monitor import state_size
from dcmon.config import DEFAULT_CONFIG
from dcmon.corpus import build_policy_source, oracle_verdicts
from dcmon.dsl import parse_policy, validate_policy
from dcmon.sim import load_trace, run, run_unmonitored

from . import calibrate, gate
from .tracing import HOOKS, ROOT, LayerTotals, Tracer, layer_metrics, self_time_breakdown
from .workloads import WORKLOADS, Workload, generate, write_jsonl

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
DIGESTS = HERE / "digests.json"

SETUPS = 7
# seed of the reference traces whose outputs were recorded in digests.json
REFERENCE_SEED = 20160326
CONFIG = DEFAULT_CONFIG


class SetupError(Exception):
    pass


@dataclass
class Job:
    policy_id: str
    trace: list
    cp: object
    expected: List[str]  # oracle decisions
    instrumented: List[int]
    label: str = ""
    snapshot: Optional[str] = None
    requests: int = 0
    state_bytes: int = 0
    # latencies of the current pass, reference ns
    latencies: array = field(default_factory=lambda: array("q"))
    # per-pass medians, for the monitored-against-unmonitored table
    monitored_p50: List[float] = field(default_factory=list)
    unmonitored_p50: List[float] = field(default_factory=list)


def _write_traces(workload: Workload, seed: int, directory: Path, scale: float) -> Dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, events in generate(workload, seed, scale).items():
        paths[name] = directory / f"{name}.jsonl"
        write_jsonl(paths[name], events)
    return paths


def set_up(workload: Workload, paths: Dict[str, Path], sources: Dict[str, str]):
    """Load every trace and parse and validate every policy of the workload.
    Returns the traces, the compiled policies, the parsed policies and the
    nanoseconds spent in each step."""
    t0 = time.perf_counter_ns()
    traces = {name: load_trace(path) for name, path in paths.items()}
    t1 = time.perf_counter_ns()
    specs = {pid: parse_policy(src) for pid, src in sources.items()}
    t2 = time.perf_counter_ns()
    compiled = {pid: validate_policy(spec) for pid, spec in specs.items()}
    t3 = time.perf_counter_ns()
    for pid, cp in compiled.items():
        if isinstance(cp, list):
            raise SetupError(f"{pid} does not validate: {cp}")
    return traces, compiled, specs, {"parse_trace": t1 - t0, "parse_policy": t2 - t1, "validate_policy": t3 - t2}


def _instrumented(spec, trace) -> List[int]:
    calls = {(e.pattern.api_namespace, e.pattern.method) for e in spec.events}
    return [i for i, ev in enumerate(trace) if (ev.namespace, ev.method) in calls]


def reference_results(workload: Workload, compiled, directory: Path):
    """Replay every job on the reference traces, sequentially and with
    latencies off. Yields (policy id, trace name, result)."""
    paths = _write_traces(workload, REFERENCE_SEED, directory / "reference", 1.0)
    traces = {name: load_trace(path) for name, path in paths.items()}
    for pid, trace_name in workload.jobs:
        yield pid, trace_name, run(traces[trace_name], compiled[pid], CONFIG)


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))])


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str]

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        })


class Bench:
    def __init__(self, workload_name: str, seed: int, seconds: float, scale: float = 1.0, hooks=HOOKS):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.hooks = hooks
        self.tally = gate.Tally()
        self.lines: List[str] = []
        self.raw_ns = 0  # unscaled wall time of the checked replays
        self.raw_events = 0
        self.scales: List[float] = []
        self.call_p50: List[float] = []  # per untraced pass, reference ns
        self.call_p99: List[float] = []
        self.samples = 0
        self.work = WORK_DIR / f"{workload_name}-{seed}-{id(self)}"

    # preparation, outside any timed region

    def prepare(self) -> None:
        wl = self.workload
        sources = {pid: build_policy_source(pid, CONFIG) for pid, _ in wl.jobs}
        paths = _write_traces(wl, self.seed, self.work, self.scale)
        setups = []
        for _ in range(SETUPS):
            before = calibrate.loop_ns()
            traces, compiled, specs, step_ns = set_up(wl, paths, sources)
            scale = calibrate.factor(before, calibrate.loop_ns())
            setups.append({step: ns * scale for step, ns in step_ns.items()})
        self.setup_s = statistics.median(sum(s.values()) for s in setups) / 1e9
        self.setup_steps = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
        self.jobs = [
            Job(pid, traces[tname], compiled[pid], oracle_verdicts(pid, traces[tname], CONFIG),
                _instrumented(specs[pid], traces[tname]), label=f"{pid}/{tname}")
            for pid, tname in wl.jobs
        ]
        self.events_per_pass = sum(len(j.trace) for j in self.jobs)
        self._check_reference(compiled)
        for job in self.jobs:
            self._check_first(job)
        gc.collect()
        gc.freeze()

    def _check_reference(self, compiled) -> None:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.workload.name, {})
        for pid, tname, result in reference_results(self.workload, compiled, self.work):
            label = f"reference {pid}/{tname}"
            self.tally.record(label, gate.check_digests(result, recorded.get(f"{pid}/{tname}")))

    def _check_first(self, job: Job) -> None:
        """The untimed first replay of a job, latencies off, fully checked."""
        try:
            res = run(job.trace, job.cp, CONFIG)
        except Exception as ex:  # a failed replay is counted, not fatal
            self.tally.record(job.label, [f"raised {ex!r}"])
            return
        problems = gate.check_decisions(res, job.expected) + gate.check_channel(res)
        problems += gate.check_rebuild(job.cp, res)
        self.tally.record(job.label, problems)
        job.snapshot = res.snapshot
        job.requests = gate.requests_in(res)
        job.state_bytes = state_size(res.global_state)["total_bytes"]

    # replays

    def _replay(self, job: Job, tracer: Optional[Tracer] = None) -> Optional[float]:
        """One checked replay; returns its time in reference ns, None if it
        failed."""
        gc.collect()
        before = calibrate.loop_ns()
        try:
            if tracer is None:
                t0 = time.perf_counter_ns()
                res = run(job.trace, job.cp, CONFIG, measure_latency=True)
                elapsed = time.perf_counter_ns() - t0
            else:
                with tracer.installed():
                    res = tracer.replay(run, job.trace, job.cp, CONFIG)
                elapsed = tracer.elapsed_ns()
        except Exception as ex:  # a failed replay is counted, not fatal
            self.tally.record(job.label, [f"raised {ex!r}"])
            return None
        scale = calibrate.factor(before, calibrate.loop_ns())
        problems = gate.check_decisions(res, job.expected) + gate.check_channel(res)
        if res.snapshot != job.snapshot:
            problems.append("snapshot differs from the first replay")
        if gate.requests_in(res) != job.requests:
            problems.append("channel request count differs from the first replay")
        if not self.tally.record(job.label, problems):
            return None
        if tracer is None:
            self.raw_ns += elapsed
            self.raw_events += len(job.trace)
            self.scales.append(scale)
            verdicts = res.verdicts
            job.latencies = array("q", sorted(int(verdicts[i].latency_ns * scale) for i in job.instrumented))
            job.monitored_p50.append(_percentile(job.latencies, 0.5))
        else:
            tracer.fold(len(job.trace), scale)
        return elapsed * scale

    def _pass(self, tracer_for=None) -> Optional[float]:
        """Replay every job once; reference µs per event, None if any
        replay failed. An untraced pass also records the median and p99 of
        its instrumented-call latencies."""
        total = 0.0
        for job in self.jobs:
            ns = self._replay(job, tracer_for(job) if tracer_for else None)
            if ns is None:
                return None
            total += ns
        if tracer_for is None:
            samples = sorted(x for job in self.jobs for x in job.latencies)
            self.samples += len(samples)
            self.call_p50.append(_percentile(samples, 0.5))
            self.call_p99.append(_percentile(samples, 0.99))
        return total / 1000 / self.events_per_pass

    def _unmonitored(self) -> None:
        for job in self.jobs:
            before = calibrate.loop_ns()
            res = run_unmonitored(job.trace, CONFIG, measure_latency=True)
            scale = calibrate.factor(before, calibrate.loop_ns())
            samples = sorted(int(res.verdicts[i].latency_ns * scale) for i in job.instrumented)
            job.unmonitored_p50.append(_percentile(samples, 0.5))

    # the two kinds of run

    def measure(self) -> Outcome:
        passes: List[float] = []
        deadline = time.perf_counter() + self.seconds
        while not passes or time.perf_counter() < deadline:
            us = self._pass()
            if us is None:
                break
            passes.append(us)
            self._unmonitored()
        metrics = self._end_to_end(passes)
        self._paper_table()
        return self._outcome(metrics)

    def measure_traced(self) -> Outcome:
        tracers = {job.label: Tracer(self.hooks) for job in self.jobs}
        untraced: List[float] = []
        traced: List[float] = []
        deadline = time.perf_counter() + self.seconds
        while not traced or time.perf_counter() < deadline:
            us = self._pass()
            if us is None:
                break
            untraced.append(us)
            us = self._pass(lambda job: tracers[job.label])
            if us is None:
                break
            traced.append(us)
        totals = LayerTotals()
        for tracer in tracers.values():
            totals.add(tracer.totals)
        metrics = layer_metrics(totals)
        metrics.update(self._setup_layers())
        metrics["channel_requests_per_event"] = sum(j.requests for j in self.jobs) / self.events_per_pass, "count/event"
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100 if traced and untraced else 0.0
        metrics["trace.overhead_pct"] = overhead, "%"
        missing = sorted({m for t in tracers.values() for m in t.missing})
        metrics["trace.missing_hooks"] = float(len(missing)), "count"
        metrics["call_p99_us"] = self._median_us(self.call_p99), "us"
        self._traced_report(tracers, untraced, traced, missing)
        return self._outcome(metrics)

    # reporting

    def _end_to_end(self, passes: List[float]) -> Dict[str, Tuple[float, str]]:
        ordered = sorted(passes)
        samples = self.samples
        metrics = {
            "replay_us_per_event": (statistics.median(ordered) if ordered else 0.0, "us"),
            "call_p50_us": (self._median_us(self.call_p50), "us"),
            "state_bytes_final": (float(sum(j.state_bytes for j in self.jobs)), "bytes"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (self.setup_s, "s"),
        }
        self.lines.append(f"replay_us_per_event median {metrics['replay_us_per_event'][0]:.3f}, "
                          f"p90 {_percentile(ordered, 0.9):.3f} us over n={len(passes)} passes "
                          f"of {self.events_per_pass} events")
        self.lines.append(f"call_p50_us {metrics['call_p50_us'][0]:.3f}, call_p99_us {self._median_us(self.call_p99):.3f} us: "
                          f"medians over passes of each pass's percentile; {samples} instrumented-call samples, "
                          f"about {samples // max(len(passes), 1)} a pass")
        self._host_line()
        requests = sum(j.requests for j in self.jobs)
        self.lines.append(f"channel_requests_per_event {requests / self.events_per_pass:.6f} count/event (exact)")
        return metrics

    @staticmethod
    def _median_us(values_ns: List[float]) -> float:
        return statistics.median(values_ns) / 1000 if values_ns else 0.0

    def _host_line(self) -> None:
        if self.raw_events:
            self.lines.append(
                f"times are in reference us (calibration loop = {calibrate.REFERENCE_NS / 1e6:g} ms); "
                f"unscaled wall {self.raw_ns / 1000 / self.raw_events:.3f} us/event, "
                f"host factor median {statistics.median(self.scales):.3f}")

    def _paper_table(self) -> None:
        self.lines.append("policy                 unmonitored_us  monitored_us  overhead_us  overhead_%"
                          "  (per instrumented call: median over passes of each pass's median)")
        for job in self.jobs:
            mon = statistics.median(job.monitored_p50) / 1000 if job.monitored_p50 else 0.0
            unmon = statistics.median(job.unmonitored_p50) / 1000 if job.unmonitored_p50 else 0.0
            pct = f"{(mon - unmon) / unmon * 100:10.0f}" if unmon else "       n/a"
            self.lines.append(f"{job.policy_id:<22} {unmon:14.3f}  {mon:12.3f}  {mon - unmon:11.3f}  {pct}")

    def _setup_layers(self) -> Dict[str, Tuple[float, str]]:
        steps = self.setup_steps
        return {
            "dsl.parse_policy.us": (steps["parse_policy"] / 1000, "us"),
            "dsl.validate_policy.us": (steps["validate_policy"] / 1000, "us"),
            "sim.parse_trace.us": (steps["parse_trace"] / 1000, "us"),
        }

    def _traced_report(self, tracers, untraced, traced, missing) -> None:
        self.lines.append(f"passes n={len(traced)} traced, n={len(untraced)} untraced; "
                          f"replay {statistics.median(untraced) if untraced else 0:.3f} us/event untraced, "
                          f"{statistics.median(traced) if traced else 0:.3f} traced")
        self._host_line()
        for hook in missing:
            self.lines.append(f"missing hook point (reads 0): {hook}")
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            tracer = tracers[job.label]
            rows = self_time_breakdown(tracer.totals)
            total = sum(us for _, us in rows)
            replay = tracer.totals.total_ns[ROOT] / 1000 / max(tracer.totals.counts["events"], 1)
            self.lines.append(f"self time per event, {job.label}: layers sum to {total:.3f} us/event, "
                              f"traced replay {replay:.3f} us/event")
            for name, us in rows:
                self.lines.append(f"  {name:<28} {us:10.3f} us/event  {us / total * 100 if total else 0:5.1f}%")
            tracer.spans.write(WORK_DIR / f"spans-{self.workload.name}-{job.policy_id}.jsonl")

    def _outcome(self, metrics) -> Outcome:
        tally = self.tally
        self.lines.append(f"error_rate {tally.error_rate:.6f} ({tally.failed} failed of {tally.attempted} replays)")
        self.lines.extend(f"FAILED {r}" for r in tally.reasons)
        return Outcome(tally.failed == 0, tally.attempted, tally.failed, metrics, self.lines)

    def close(self) -> None:
        gc.unfreeze()
        shutil.rmtree(self.work, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0, hooks=HOOKS) -> Outcome:
    bench = Bench(name, seed, seconds, scale, hooks)
    try:
        bench.prepare()
        return bench.measure_traced() if traced else bench.measure()
    finally:
        bench.close()
