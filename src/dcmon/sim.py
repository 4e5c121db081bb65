"""Discrete-event device simulator.

Replays a timestamped trace of API calls through per-app local monitors and
the central monitor, producing the verdict log (one allowed/blocked entry
per trace event), the final global-state snapshot, and the channel log.

For each trace event the clock advances to the event time, the app's local
monitor runs the before phase's batch plan on the call's arguments, and
only if no rule blocked it does the catalog effect execute, followed by the
after phase's plan, which also sees the return value. A blocked call
therefore leaves no device effect and no after phase. A phase of a call
that no rule listens to is not intercepted, and a call whose catalog entry
touches no state returns the entry's constant without executing anything.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .catalog import API_OF_CALL, CATALOG, ApiCatalogEntry, DeviceState, arg_matches, execute_effect
# Nothing here calls `check_policy_against_catalog`: `validate_policy`
# checks a policy against the catalog. The benchmark's tracer hooks the name
# in this module under `sim.checks` and counts a missing hook, so it stays
# bound until those hooks move.
from .catalog import pattern_mismatches as check_policy_against_catalog  # noqa: F401
from .central_monitor import (
    Channel,
    ChannelMessage,
    CentralMonitor,
    GlobalState,
    canonical_json,
    check_asymmetry,
    snapshot,
)
from .config import SimConfig
from .dsl.ast import PolicySpec
from .engine import Batch, CompiledPolicy, compile_policy
from .lang.state import VarStore
from .lang.values import INT64_MAX, Value
from .local_monitor import LocalMonitor

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


class InvalidEvent(ValueError):
    """An event that the catalog or the value model cannot replay."""


# an explicit __init__, not __post_init__, keeps one frame per event built
@dataclass(slots=True, init=False)
class TraceEvent:
    """At time `t` (ms), `app` calls the catalog entry `api` with `args`.
    The constructor is the one check of an event, parsed or built by hand."""

    t: int
    app: str
    api: ApiCatalogEntry
    args: Tuple[Value, ...]

    def __init__(self, t: int, app: str, api: ApiCatalogEntry, args: Tuple[Value, ...]) -> None:
        # JSON decodes to no int subclass but bool
        if type(t) is not int or t < 0:
            raise InvalidEvent("t_ms must be a nonnegative integer")
        if t > INT64_MAX:
            raise InvalidEvent("t_ms must not exceed 2**63-1")
        if type(app) is not str or not app:
            raise InvalidEvent("app must be a nonempty string")
        # arguments of exactly the plain types pass at once; others go through arg_matches
        if tuple(map(type, args)) != api.arg_types:
            if len(args) != len(api.param_types):
                raise InvalidEvent(f"{api.call!r} takes {len(api.param_types)} arguments, got {len(args)}")
            for pos, (vt, value) in enumerate(zip(api.param_types, args)):
                if not arg_matches(vt, value):
                    raise InvalidEvent(f"argument {pos} of {api.call!r} must be {vt}, got {value!r}")
        self.t = t
        self.app = app
        self.api = api
        self.args = args

    @property
    def namespace(self) -> str:
        return self.api.namespace

    @property
    def method(self) -> str:
        return self.api.method

    @property
    def call(self) -> str:
        return self.api.call

    def to_json(self) -> str:
        return canonical_json({"t_ms": self.t, "app": self.app, "call": self.api.call, "args": list(self.args)})


@dataclass(slots=True)
class VerdictEntry:
    t: int
    app: str
    call: str
    decision: str
    reason: str
    latency_ns: int

    def to_json(self) -> str:
        return canonical_json(
            {
                "t_ms": self.t,
                "app": self.app,
                "call": self.call,
                "decision": self.decision,
                "reason": self.reason,
                "latency_ns": self.latency_ns,
            }
        )


# The line breaks of str.splitlines() that JSON cannot hold raw inside a
# string, besides "\n": all but U+0085, U+2028 and U+2029, which JSON can.
# "\r\n" comes before "\r", so that it ends one line, not two.
_LINE_BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e")

# JSON's whitespace that ends no line, the only characters that may pad one
_JSON_SPACE = " \t"


def _split_lines(text: str) -> List[str]:
    """The lines of `text`, stripped of JSON's space and tab. ASCII text
    holds none of the breaks that `str.splitlines()` adds to
    `_LINE_BREAKS` and "\n" (U+0085, U+2028 and U+2029), so there it
    breaks at the same places in one pass; it only drops the empty line
    after a final break, which names no event."""
    if text.isascii():
        lines = text.splitlines()
    else:
        for brk in _LINE_BREAKS:
            text = text.replace(brk, "\n")
        lines = text.split("\n")
    return [line.strip(_JSON_SPACE) for line in lines]


def _event_checker(append: Callable[[TraceEvent], None]) -> Callable[[dict], TraceEvent]:
    """The check of one decoded object: it resolves the call to its catalog
    entry, then appends and returns the constructor's event, or raises
    `InvalidEvent`. One call per object, it is also a hook.

    Once the constructor has accepted an event, its `app` becomes the first
    equal string and its `args` the first equal tuple of the same catalog
    entry that this checker has seen, so a parse holds each distinct value
    once. The args tables are per entry, and an entry accepts only its
    parameters' exact types, so equal tuples that share are of equal types
    too: `(1,)` never stands for `(True,)`. The tables live as long as the
    checker, one parse."""
    apps: Dict[str, str] = {}
    args_of: Dict[ApiCatalogEntry, Dict[Tuple[Value, ...], Tuple[Value, ...]]] = {
        api: {} for api in CATALOG.values()
    }

    def event_of(doc: dict) -> TraceEvent:
        try:
            t, app, call, args = doc["t_ms"], doc["app"], doc["call"], doc["args"]
        except KeyError:
            missing = {"t_ms", "app", "call", "args"} - set(doc)
            raise InvalidEvent(f"missing fields: {', '.join(sorted(missing))}") from None
        try:
            api = API_OF_CALL[call]
        except (KeyError, TypeError):  # TypeError: an unhashable call
            if type(call) is not str or call.count(".") != 1:
                raise InvalidEvent("call must look like Namespace.method") from None
            raise InvalidEvent(f"unknown API {call!r}") from None
        if type(args) is not list:
            raise InvalidEvent("args must be a list")
        ev = TraceEvent(t, app, api, tuple(args))
        ev.app = apps.setdefault(app, app)
        ev.args = args_of[api].setdefault(ev.args, ev.args)
        append(ev)
        return ev

    return event_of


def _check_utf8(value) -> None:
    """Raise `InvalidEvent` if a string in `value` holds a lone surrogate."""
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidEvent("app, call and args must be encodable as UTF-8") from None


def parse_trace(text: str) -> List[TraceEvent]:
    """Parse a JSON Lines trace into events.

    A line ends at each line break that JSON cannot hold raw inside a
    string (see `_LINE_BREAKS`). It holds one JSON object with the fields
    `t_ms`, `app`, `call` and `args`, padded only by JSON's space and tab;
    a line of nothing else is skipped. Its call must name a catalog entry,
    and its event pass the `TraceEvent` constructor. Times must be
    nondecreasing. The first bad line raises `TraceFormatError`
    (`UnsortedTrace` for a time out of order, its line's last check) naming
    its number.

    Every text is parsed by one `json.loads` call over all its lines. On
    any doubt, such as a bad line or a string with no UTF-8 encoding, the
    per-line loop parses the lines again and decides them.

    The events of one parse share their values: equal apps are one string,
    and equal args of one catalog entry are one tuple (see
    `_event_checker`). Compare events by value, never by identity.
    """
    lines = _split_lines(text)
    try:
        events = _parse_in_one_call(lines)
        # a lone surrogate, raw or escaped as \udXXX, has no UTF-8 encoding;
        # ASCII text without a \u escape holds none, and a catalog call none
        if not text.isascii() or "\\u" in text:
            _check_utf8([(ev.app, ev.args) for ev in events])
        return events
    except (ValueError, RecursionError):
        pass
    return _parse_by_line(lines)


def _parse_in_one_call(lines: List[str]) -> List[TraceEvent]:
    """Parse all lines as one JSON array, or raise on any doubt.

    Each nonblank line must start with `{` and end with `}`, and these
    lines are joined with ",\n", with the array's brackets on the first and
    the last line, so that the array's text is built once. No JSON string
    holds a raw line break, whatever else the text holds, so these braces
    are structural. The hook
    turns every object into an event, with the per-line loop's checks, so
    as many events as lines means one `{` per line, the one that starts it.
    No object is then open when a line starts, so the `}` that ends the
    line closes the line's own object: each line is exactly one object,
    which the per-line loop would parse alike. (Joined with a bare ",", a
    string could run across a line.)"""
    nonblank = [line for line in lines if line]
    if not all(line[0] == "{" and line[-1] == "}" for line in nonblank):
        raise ValueError
    if not nonblank:
        return []
    nonblank[0] = "[" + nonblank[0]
    nonblank[-1] += "]"
    events: List[TraceEvent] = []
    json.loads(",\n".join(nonblank), object_hook=_event_checker(events.append))
    if len(events) != len(nonblank):
        raise ValueError
    times = [ev.t for ev in events]
    if times != sorted(times):
        raise ValueError
    return events


def _parse_by_line(lines: List[str]) -> List[TraceEvent]:
    """Parse each line with its own `json.loads` call; raise at the first
    bad line. A line's strings are checked first, then its call."""
    events: List[TraceEvent] = []
    event_of = _event_checker(events.append)
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as ex:
            raise TraceFormatError(lineno, f"invalid JSON: {ex.msg}") from ex
        except ValueError:
            # an integer past sys.get_int_max_str_digits()
            raise TraceFormatError(lineno, "invalid JSON: integer has too many digits") from None
        except RecursionError:
            raise TraceFormatError(lineno, "invalid JSON: nested too deeply") from None
        if not isinstance(doc, dict):
            raise TraceFormatError(lineno, "event must be a JSON object")
        try:
            _check_utf8([doc.get("app"), doc.get("call"), doc.get("args")])
            ev = event_of(doc)
        except InvalidEvent as ex:
            raise TraceFormatError(lineno, str(ex)) from None
        if len(events) > 1 and ev.t < events[-2].t:
            raise UnsortedTrace(lineno)
    return events


def load_trace(path) -> List[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


def write_trace(path, trace: List[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in trace:
            fh.write(ev.to_json() + "\n")


Plans = Tuple[Tuple[Batch, ...], Tuple[Batch, ...]]  # a call's before and after batch plans
# a call's before and after batch plans and its constant return, None when
# its catalog entry touches state
CallTable = Dict[ApiCatalogEntry, Tuple[Tuple[Batch, ...], Tuple[Batch, ...], Optional[Value]]]


def _check_trace_against_catalog(trace: List[TraceEvent], dispatch: Dict[Tuple[str, str], Plans]) -> CallTable:
    """Check the time order, all that a list of checked events can get
    wrong, and map each catalog entry to its API's before and after batch
    plans and its constant return. (The benchmark's tracer hooks this by
    its older name.)"""
    last_t = 0
    for idx, ev in enumerate(trace):
        if ev.t < last_t:
            raise UnsortedTrace(idx + 1)
        last_t = ev.t
    return {api: (*dispatch.get(key, ((), ())), api.constant_return) for key, api in CATALOG.items()}


@dataclass
class RunResult:
    verdicts: List[VerdictEntry]
    snapshot: str
    channel_entries: List[ChannelMessage]
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
            canonical_json({"event": idx, "t_ms": self.verdicts[idx].t, "app": self.verdicts[idx].app, "fault": fault})
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
    channel_connected: bool = True,
) -> RunResult:
    """Monitored replay. Deterministic for a given trace, policy and mode:
    `concurrent_same_t` computes its schedule, which the result lists as
    `arrival_order`. Latencies are reported as 0 unless measurement is on,
    keeping output files byte-stable across runs. `config` is not read:
    it shapes a policy only when the corpus compiles it.

    Each event was checked when it was built, and a policy that passed
    `validate_policy` fits the catalog, so the run checks neither again,
    only the time order of the list. The run maps each catalog entry to
    its batch plans and its constant return once, and hands each phase's
    plan straight to the app's local monitor. So a call that no rule
    intercepts costs one dict read, and one `execute_effect` call only if
    its entry touches state (`setWifiEnabled`, `dialCall`, `endCall`).
    Every phase appends its faults to one list, which the run empties
    after each event."""
    table = _check_trace_against_catalog(trace, cp.dispatch)

    device = DeviceState()
    gs = GlobalState(vars=VarStore(cp.global_kinds), attrs=device.attrs)
    initial = gs.copy()
    log: List[ChannelMessage] = []
    central = CentralMonitor(cp, gs, log)
    channel = Channel(central)
    if not channel_connected:
        channel.disconnect()
    # app-side set_attr models the monitor driving a device API: it writes
    # the device attributes directly, without channel traffic
    monitors: Dict[str, LocalMonitor] = {
        app: LocalMonitor(app, app, cp, channel, device.attrs) for app in sorted({ev.app for ev in trace})
    }
    # the execution order is a permutation, so it fills every slot
    verdicts: List[Optional[VerdictEntry]] = [None] * len(trace)
    faults: List[Tuple[int, str]] = []
    event_faults: List[str] = []  # the current event's, in the order they arise
    order = _execution_order(trace, concurrent_same_t)
    for idx in order:
        ev = trace[idx]
        api = ev.api
        # A phase without rules proceeds with no fault and no write, so it
        # is not intercepted; an entry that touches no state executes nothing.
        try:
            before_plan, after_plan, ret = table[api]
        except KeyError:
            raise InvalidEvent(f"event {idx} holds an entry for {api.call!r} that is not the catalog's own") from None
        t0 = time.perf_counter_ns() if measure_latency else 0
        blocked_by = monitors[ev.app].intercept(before_plan, ev.args, None, ev.t, event_faults) if before_plan else None
        if blocked_by is None:
            decision, reason = ALLOWED, NO_RULE
            if ret is None:
                ret = execute_effect(api, ev.args, device)
            if after_plan:
                monitors[ev.app].intercept(after_plan, ev.args, ret, ev.t, event_faults)
        else:
            decision, reason = BLOCKED, blocked_by
        latency = time.perf_counter_ns() - t0 if measure_latency else 0
        verdicts[idx] = VerdictEntry(ev.t, ev.app, api.call, decision, reason, latency)
        if event_faults:
            faults.extend((idx, f) for f in event_faults)
            event_faults.clear()

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


def _execution_order(trace: List[TraceEvent], concurrent_same_t: bool) -> Sequence[int]:
    """The order in which run() processes the trace events.

    Sequential mode keeps trace order. Concurrent mode models apps as
    independent components whose calls one device-wide monitor puts in
    order: within each group of same-timestamp events the apps take turns
    in the order of their first event in the group, and each app's events
    run as one block, in trace order.
    """
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


# a policy with no rules: every call proceeds, and no phase is intercepted
_NO_RULES = compile_policy(PolicySpec((), (), (), ()), {})


def run_unmonitored(
    trace: List[TraceEvent],
    config: Optional[SimConfig] = None,
    *,
    measure_latency: bool = False,
) -> RunResult:
    """Baseline replay with monitoring disabled: `run()` under a policy with
    no rules, so every call proceeds. Its result holds one empty local store
    per app and the initial global state, as every run's does."""
    return run(trace, _NO_RULES, config, measure_latency=measure_latency)
