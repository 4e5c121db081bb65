"""Per-layer spans recorded from outside the program.

The tracer replaces functions at the names their callers bind, for the
length of a traced replay, and restores them afterwards. A span holds a
name, a start, an end and its parent span; spans stay in memory and are
folded into per-layer totals after each replay. A layer's self time is its
spans' time minus the time of their child spans.

Hooks sit at call sites, never at a definition that calls itself through
its module global: ``engine.evaluate_guard`` is recursive, so it is wrapped
where ``local_monitor`` and ``central_monitor`` import it. A hook whose
target no longer exists is skipped and listed in ``missing``; its layer
then reads zero.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (layer, module, attribute or Class.attribute)
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("local_monitor.intercept", "dcmon.local_monitor", "LocalMonitor.intercept"),
    ("engine.rules_for", "dcmon.local_monitor", "rules_for"),
    ("lang.eval_expr.app", "dcmon.local_monitor", "eval_expr"),
    ("lang.eval_expr.global", "dcmon.central_monitor", "eval_expr"),
    ("engine.evaluate_guard", "dcmon.local_monitor", "evaluate_guard"),
    ("engine.evaluate_guard", "dcmon.central_monitor", "evaluate_guard"),
    ("lang.exec_stmts.app", "dcmon.local_monitor", "exec_stmts"),
    ("lang.exec_stmts.global", "dcmon.central_monitor", "exec_stmts"),
    ("channel.request", "dcmon.central_monitor", "Channel.request"),
    ("central.handle_request", "dcmon.central_monitor", "CentralMonitor.handle_request"),
    ("catalog.execute_effect", "dcmon.sim", "execute_effect"),
    ("sim.snapshot", "dcmon.sim", "snapshot"),
    ("sim.checks", "dcmon.sim", "check_policy_against_catalog"),
    ("sim.checks", "dcmon.sim", "_check_trace_against_catalog"),
    ("sim.checks", "dcmon.sim", "check_asymmetry"),
)

ROOT = "sim.run"
INTERCEPT = "local_monitor.intercept"
RULES_FOR = "engine.rules_for"
HANDLE_REQUEST = "central.handle_request"
# counters a replay keeps beside its spans
COUNTERS = ("requests", "guard_true", "fault_replies", "gc_collections", "gc_pause_ns")


class LayerTotals:
    """Per-layer sums over the replays folded so far."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, float] = defaultdict(float)
        self.self_ns: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = dict.fromkeys(COUNTERS + ("useful_intercepts", "runs", "events"), 0)

    def add(self, other: "LayerTotals") -> None:
        for name, n in other.calls.items():
            self.calls[name] += n
            self.total_ns[name] += other.total_ns[name]
            self.self_ns[name] += other.self_ns[name]
        for name, n in other.counts.items():
            self.counts[name] += n


class Spans:
    """One replay's spans as parallel columns. Span 0 is the replay itself;
    a parent is a span index. Columns of machine integers keep the spans
    out of the garbage collector's way, so tracing does not inflate the
    program's own collections."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                parent = self.parents[i]
                doc = {"id": i, "name": name, "start_ns": self.starts[i], "end_ns": self.ends[i],
                       "parent": parent if parent >= 0 else None}
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


class Tracer:
    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.spans = Spans()
        self.missing: List[str] = []
        self.totals = LayerTotals()
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._gc_start = 0

    # installing and removing the wrappers

    @contextmanager
    def installed(self):
        """Wrap every hook; spans go to a fresh record that outlives the block."""
        self.spans = Spans()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        try:
            for layer, module, attr in self.hooks:
                self._install(layer, module, attr)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(self._installed):
                setattr(owner, attr, original)
            self._installed = []

    def _install(self, layer: str, module: str, attr: str) -> None:
        try:
            owner = importlib.import_module(module)
            *outer, name = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        observe = self._observe_reply if layer == HANDLE_REQUEST else None
        setattr(owner, name, self._wrap(layer, original, observe))
        self._installed.append((owner, name, original))

    def _wrap(self, layer: str, fn, observe):
        spans = self.spans
        names, starts, ends, parents = spans.names, spans.starts, spans.ends, spans.parents
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(layer)
            parents.append(stack[-1])
            ends.append(0)
            starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_reply(self, reply) -> None:
        counts = self.counts
        counts["requests"] += 1
        if getattr(reply, "guard_result", None) is True:
            counts["guard_true"] += 1
        if getattr(reply, "fault", None) is not None:
            counts["fault_replies"] += 1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.counts["gc_collections"] += 1
            self.counts["gc_pause_ns"] += time.perf_counter_ns() - self._gc_start

    # one traced replay

    def replay(self, fn, *args, **kwargs):
        """Run `fn` as span 0, the root of one replay, inside `installed()`."""
        spans = self.spans
        spans.names.append(ROOT)
        spans.parents.append(-1)
        spans.ends.append(0)
        self._stack[:] = [0]
        spans.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            spans.ends[0] = time.perf_counter_ns()
            self._stack.clear()

    def elapsed_ns(self) -> int:
        return self.spans.ends[0] - self.spans.starts[0]

    def fold(self, events: int, scale: float) -> None:
        """Add the last replay's spans to the per-layer totals, times
        multiplied by `scale`."""
        totals = self.totals
        names, starts, ends, parents = self.spans.names, self.spans.starts, self.spans.ends, self.spans.parents
        child_ns = [0] * len(names)
        useful = set()
        for i in range(1, len(names)):
            parent = parents[i]
            child_ns[parent] += ends[i] - starts[i]
            if names[parent] == INTERCEPT and names[i] != RULES_FOR:
                useful.add(parent)
        for i, name in enumerate(names):
            elapsed = ends[i] - starts[i]
            totals.calls[name] += 1
            totals.total_ns[name] += elapsed * scale
            totals.self_ns[name] += (elapsed - child_ns[i]) * scale
        counts = totals.counts
        for name, n in self.counts.items():
            counts[name] += n * scale if name == "gc_pause_ns" else n
        counts["useful_intercepts"] += len(useful)
        counts["runs"] += 1
        counts["events"] += events


def layer_metrics(totals: LayerTotals) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, normalised per replayed trace event or per run."""
    counts = totals.counts
    events = max(counts["events"], 1)
    runs = max(counts["runs"], 1)

    def per_event_us(ns: float) -> Tuple[float, str]:
        return ns / 1000 / events, "us/event"

    def ratio(part: float, whole: float) -> Tuple[float, str]:
        return (part / whole if whole else 0.0), "ratio"

    out: Dict[str, Tuple[float, str]] = {}
    for name in (INTERCEPT, RULES_FOR, "lang.eval_expr.app", "lang.eval_expr.global", "engine.evaluate_guard",
                 "channel.request", "lang.exec_stmts.global", "lang.exec_stmts.app", "catalog.execute_effect"):
        out[f"{name}.calls"] = totals.calls[name] / events, "count/event"
    for name in (RULES_FOR, "lang.eval_expr.app", "lang.eval_expr.global", "engine.evaluate_guard",
                 "lang.exec_stmts.global", "lang.exec_stmts.app", "catalog.execute_effect"):
        out[f"{name}.us"] = per_event_us(totals.total_ns[name])
    for name in (INTERCEPT, "channel.request", HANDLE_REQUEST):
        out[f"{name}.self_us"] = per_event_us(totals.self_ns[name])
    out["local_monitor.intercept.useful_ratio"] = ratio(counts["useful_intercepts"], totals.calls[INTERCEPT])
    out["central.guard_true_ratio"] = ratio(counts["guard_true"], counts["requests"])
    out["central.fault_replies"] = counts["fault_replies"] / events, "count/event"
    out["gc.collections"] = counts["gc_collections"] / events, "count/event"
    out["gc.pause_us"] = per_event_us(counts["gc_pause_ns"])
    out["sim.checks.us_per_run"] = totals.total_ns["sim.checks"] / 1000 / runs, "us/run"
    out["sim.snapshot.us_per_run"] = totals.total_ns["sim.snapshot"] / 1000 / runs, "us/run"
    out["sim.run.self_us_per_event"] = per_event_us(totals.self_ns[ROOT])
    return out


def self_time_breakdown(totals: LayerTotals) -> List[Tuple[str, float]]:
    """Self µs per event of every layer, largest first; they sum to the
    traced replay time per event."""
    events = max(totals.counts["events"], 1)
    rows = [(name, ns / 1000 / events) for name, ns in totals.self_ns.items()]
    return sorted(rows, key=lambda r: -r[1])
