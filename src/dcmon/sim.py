"""Discrete-event device simulator.

Replays a timestamped trace of API calls through per-app local monitors and
the central monitor, producing the verdict log (one allowed/blocked entry
per trace event), the final global-state snapshot, and the channel log.

For each trace event the clock advances to the event time, the before-phase
occurrence is intercepted, and only if no rule blocked it does the catalog
effect execute, followed by the after-phase occurrence carrying the return
value. A blocked call therefore leaves no device effect and no after
occurrence. A phase of a call that no rule listens to builds no occurrence
and is not intercepted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import CATALOG, DeviceState, arg_matches, execute_effect
from .central_monitor import (
    Channel,
    ChannelLogEntry,
    CentralMonitor,
    GlobalState,
    check_asymmetry,
    snapshot,
)
from .config import SimConfig
from .dsl.ast import Phase
from .engine import CompiledPolicy
from .lang.state import VarStore
from .lang.values import INT64_MAX, Value
from .local_monitor import EventOccurrence, LocalMonitor

ALLOWED = "Allowed"
BLOCKED = "Blocked"
NO_RULE = "no rule"


class TraceFormatError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsortedTrace(TraceFormatError):
    def __init__(self, line: int):
        super().__init__(line, "timestamps must be nondecreasing")


class CatalogMismatch(Exception):
    pass


@dataclass(frozen=True)
class TraceEvent:
    t: int
    app: str
    namespace: str
    method: str
    args: Tuple[Value, ...]

    @property
    def call(self) -> str:
        return f"{self.namespace}.{self.method}"

    def to_json(self) -> str:
        return json.dumps(
            {"t_ms": self.t, "app": self.app, "call": self.call, "args": list(self.args)},
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass
class VerdictEntry:
    t: int
    app: str
    call: str
    decision: str
    reason: str
    latency_ns: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "t_ms": self.t,
                "app": self.app,
                "call": self.call,
                "decision": self.decision,
                "reason": self.reason,
                "latency_ns": self.latency_ns,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def parse_trace(text: str) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    last_t = None
    # a lone surrogate, raw or escaped as \udXXX, has no UTF-8 encoding;
    # ASCII text without a \u escape holds none, so one scan clears it
    may_hold_surrogates = not text.isascii() or "\\u" in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as ex:
            raise TraceFormatError(lineno, f"invalid JSON: {ex.msg}") from ex
        if not isinstance(doc, dict):
            raise TraceFormatError(lineno, "event must be a JSON object")
        missing = {"t_ms", "app", "call", "args"} - set(doc)
        if missing:
            raise TraceFormatError(lineno, f"missing fields: {', '.join(sorted(missing))}")
        t = doc["t_ms"]
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise TraceFormatError(lineno, "t_ms must be a nonnegative integer")
        if t > INT64_MAX:
            raise TraceFormatError(lineno, "t_ms must not exceed 2**63-1")
        app = doc["app"]
        if not isinstance(app, str) or not app:
            raise TraceFormatError(lineno, "app must be a nonempty string")
        call = doc["call"]
        if not isinstance(call, str) or call.count(".") != 1:
            raise TraceFormatError(lineno, "call must look like Namespace.method")
        namespace, method = call.split(".")
        args = doc["args"]
        if not isinstance(args, list):
            raise TraceFormatError(lineno, "args must be a list")
        if may_hold_surrogates:
            try:
                json.dumps([app, call, args], ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise TraceFormatError(lineno, "app, call and args must be encodable as UTF-8") from None
        if last_t is not None and t < last_t:
            raise UnsortedTrace(lineno)
        last_t = t
        events.append(TraceEvent(t=t, app=app, namespace=namespace, method=method, args=tuple(args)))
    return events


def load_trace(path) -> List[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


def write_trace(path, trace: List[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in trace:
            fh.write(ev.to_json() + "\n")


def check_policy_against_catalog(cp: CompiledPolicy) -> None:
    """Every declared event pattern must name a catalog entry and agree
    with its parameter and return types."""
    for event in cp.events:
        entry = CATALOG.get((event.pattern.api_namespace, event.pattern.method))
        if entry is None:
            raise CatalogMismatch(f"event {event.name!r} intercepts unknown API {event.pattern.api_namespace}.{event.pattern.method}")
        params = event.pattern.params
        if params is not None:
            declared = tuple(p.vtype for p in params)
            if declared != entry.param_types:
                raise CatalogMismatch(
                    f"event {event.name!r} declares parameter types "
                    f"({', '.join(str(t) for t in declared)}) but {entry.call} takes "
                    f"({', '.join(str(t) for t in entry.param_types)})"
                )
        if event.return_binding is not None:
            binding = event.param_named(event.return_binding)
            if binding is not None and binding.vtype is not entry.return_type:
                raise CatalogMismatch(
                    f"event {event.name!r} binds the return of {entry.call} as {binding.vtype}, "
                    f"which returns {entry.return_type}"
                )


def _check_trace_against_catalog(trace: List[TraceEvent]) -> None:
    for idx, ev in enumerate(trace):
        if idx and ev.t < trace[idx - 1].t:
            raise UnsortedTrace(idx + 1)
        entry = CATALOG.get((ev.namespace, ev.method))
        if entry is None:
            raise CatalogMismatch(f"trace event {idx} calls unknown API {ev.call}")
        if len(ev.args) != len(entry.param_types):
            raise CatalogMismatch(
                f"trace event {idx}: {ev.call} takes {len(entry.param_types)} arguments, got {len(ev.args)}"
            )
        for pos, (vt, value) in enumerate(zip(entry.param_types, ev.args)):
            if not arg_matches(vt, value):
                raise CatalogMismatch(
                    f"trace event {idx}: argument {pos} of {ev.call} must be {vt}, got {value!r}"
                )


@dataclass
class RunResult:
    verdicts: List[VerdictEntry]
    snapshot: str
    channel_entries: List[ChannelLogEntry]
    global_state: Optional[GlobalState]
    initial_global: Optional[GlobalState]
    device: DeviceState
    local_states: Dict[str, VarStore]
    arrival_order: List[int]
    faults: List[Tuple[int, str]] = field(default_factory=list)

    def decisions(self) -> List[str]:
        return [v.decision for v in self.verdicts]

    def verdict_lines(self) -> str:
        return "".join(v.to_json() + "\n" for v in self.verdicts)

    def channel_lines(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.channel_entries)

    def fault_lines(self) -> str:
        """One JSON line per fault, in the order of `faults`."""
        return "".join(
            json.dumps(
                {"event": idx, "t_ms": self.verdicts[idx].t, "app": self.verdicts[idx].app, "fault": fault},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for idx, fault in self.faults
        )


def run(
    trace: List[TraceEvent],
    cp: CompiledPolicy,
    config: Optional[SimConfig] = None,
    *,
    measure_latency: bool = False,
    concurrent_same_t: bool = False,
    arrival_order: Optional[List[int]] = None,
    channel_connected: bool = True,
) -> RunResult:
    """Monitored replay. Deterministic for a given trace, policy and
    execution order; latencies are reported as 0 unless measurement is on,
    keeping output files byte-stable across runs. `config` is not read:
    it shapes a policy only when the corpus compiles it."""
    check_policy_against_catalog(cp)
    _check_trace_against_catalog(trace)

    device = DeviceState()
    gs = GlobalState(vars=VarStore(), attrs=device.attrs)
    initial = gs.copy()
    log: List[ChannelLogEntry] = []
    central = CentralMonitor(cp, gs, log)
    channel = Channel(central)
    if not channel_connected:
        channel.disconnect()
    # app-side set_attr models the monitor driving a device API: it writes
    # the device attributes directly, without channel traffic
    monitors: Dict[str, LocalMonitor] = {
        app: LocalMonitor(app, app, cp, channel, device.attrs) for app in sorted({ev.app for ev in trace})
    }
    # the execution order is a checked permutation, so it fills every slot
    verdicts: List[Optional[VerdictEntry]] = [None] * len(trace)
    faults: List[Tuple[int, str]] = []
    dispatch = cp.dispatch
    order = _execution_order(trace, concurrent_same_t, arrival_order)
    for idx in order:
        ev = trace[idx]
        entry = CATALOG[(ev.namespace, ev.method)]
        monitor = monitors[ev.app]
        t0 = time.perf_counter_ns() if measure_latency else 0
        # A phase without rules proceeds with no fault and no write, so it
        # builds no occurrence and is not intercepted.
        before_plan, after_plan = dispatch.get((ev.namespace, ev.method), ((), ()))
        event_faults = ()
        decision, reason = ALLOWED, NO_RULE
        if before_plan:
            # positional: (namespace, method, phase, args, return_value, t)
            before = monitor.intercept(EventOccurrence(ev.namespace, ev.method, Phase.BEFORE, ev.args, None, ev.t))
            event_faults = before.faults
            if before.blocked:
                decision, reason = BLOCKED, before.reason
        if decision == ALLOWED:
            ret = execute_effect(entry, ev.args, device)
            if after_plan:
                after = monitor.intercept(EventOccurrence(ev.namespace, ev.method, Phase.AFTER, ev.args, ret, ev.t))
                event_faults += after.faults
        latency = time.perf_counter_ns() - t0 if measure_latency else 0
        verdicts[idx] = VerdictEntry(ev.t, ev.app, ev.call, decision, reason, latency)
        if event_faults:
            faults.extend((idx, f) for f in event_faults)

    problems = check_asymmetry(log)
    if problems:
        raise RuntimeError("channel asymmetry violated: " + "; ".join(problems))
    return RunResult(
        verdicts=verdicts,
        snapshot=snapshot(gs),
        channel_entries=log,
        global_state=gs,
        initial_global=initial,
        device=device,
        local_states={app: m.local for app, m in monitors.items()},
        arrival_order=list(order),
        faults=sorted(faults),
    )


def _execution_order(
    trace: List[TraceEvent], concurrent_same_t: bool, arrival_order: Optional[List[int]]
) -> Sequence[int]:
    """The order in which run() processes the trace events.

    Sequential mode keeps trace order. Concurrent mode models apps as
    independent components whose calls one device-wide monitor puts in
    order: within each group of same-timestamp events the apps take turns
    in the order of their first event in the group, and each app's events
    run as one block, in trace order. A given arrival_order replays a
    recorded order; it must keep timestamps nondecreasing and each app's
    events in trace order.
    """
    if arrival_order is None:
        if not concurrent_same_t:
            # run() lists the order only after the replay: a list built
            # here keeps one int object per event alive through it
            return range(len(trace))
        # the trace is sorted, so an app's first index in a timestamp group
        # orders the groups as well as the apps within one; the stable sort
        # keeps each app's events in trace order
        first: Dict[Tuple[int, str], int] = {}
        for idx, ev in enumerate(trace):
            first.setdefault((ev.t, ev.app), idx)
        return sorted(range(len(trace)), key=lambda idx: first[trace[idx].t, trace[idx].app])
    if sorted(arrival_order) != list(range(len(trace))):
        raise ValueError("arrival_order must be a permutation of trace indices")
    last_t = 0
    last_of_app: Dict[str, int] = {}
    for idx in arrival_order:
        ev = trace[idx]
        if ev.t < last_t:
            raise ValueError(f"arrival_order runs event {idx} (t={ev.t}) after an event at t={last_t}")
        if last_of_app.get(ev.app, -1) > idx:
            raise ValueError(f"arrival_order runs event {idx} of {ev.app} after its event {last_of_app[ev.app]}")
        last_t = ev.t
        last_of_app[ev.app] = idx
    return arrival_order


def run_unmonitored(
    trace: List[TraceEvent],
    config: Optional[SimConfig] = None,
    *,
    measure_latency: bool = False,
) -> RunResult:
    """Baseline replay with monitoring disabled: every call proceeds."""
    _check_trace_against_catalog(trace)
    device = DeviceState()
    verdicts: List[VerdictEntry] = []
    for ev in trace:
        entry = CATALOG[(ev.namespace, ev.method)]
        t0 = time.perf_counter_ns() if measure_latency else 0
        execute_effect(entry, ev.args, device)
        latency = time.perf_counter_ns() - t0 if measure_latency else 0
        verdicts.append(VerdictEntry(ev.t, ev.app, ev.call, ALLOWED, NO_RULE, latency))
    gs = GlobalState(vars=VarStore(), attrs=device.attrs)
    return RunResult(
        verdicts=verdicts,
        snapshot=snapshot(gs),
        channel_entries=[],
        global_state=gs,
        initial_global=None,
        device=device,
        local_states={},
        arrival_order=list(range(len(trace))),
    )


def usage_sessions(trace: List[TraceEvent], idle_threshold_ms: int) -> List[Tuple[int, int]]:
    """Partition device activity into sittings; a gap of at least the idle
    threshold ends the current sitting."""
    sessions: List[List[int]] = []
    last_t: Optional[int] = None
    for ev in trace:
        if last_t is None or ev.t - last_t >= idle_threshold_ms:
            sessions.append([ev.t, ev.t])
        else:
            sessions[-1][1] = ev.t
        last_t = ev.t
    return [(s, e) for s, e in sessions]
