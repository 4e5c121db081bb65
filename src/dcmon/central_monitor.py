"""Central monitor: owner of global state and the request/reply channel.

The channel is app-initiated only. A local monitor submits a request and
blocks for the reply; the central monitor handles one request at a time and
never sends anything unsolicited, so every central-to-app log entry is the
reply to the immediately preceding request with the same seq, app, time
and rule ids.

A `Channel` serves one caller at a time and takes no lock: the simulator
runs every app in one loop. A log entry points at the request or reply it
logs, so it keeps the request's truth map and forwarded bindings as given;
the caller must not change them after the request. `MonitorReply` keeps
`guard_result` and `fault`, one-value summaries of a reply, for the
benchmark's tracer, which reads them by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .engine import CompiledPolicy, eval_expr, evaluate_guard, exec_stmts
from .lang.eval import GLOBAL_SIDE, EvalContext, EvalError, rollback
from .lang.state import VarStore
from .lang.values import Value, VType, value_to_json

APP_TO_CENTRAL = "AppToCentral"
CENTRAL_TO_APP = "CentralToApp"


class ChannelError(Exception):
    """The central monitor is unreachable."""


@dataclass
class GlobalState:
    vars: VarStore = field(default_factory=VarStore)
    attrs: VarStore = field(default_factory=VarStore)

    def copy(self) -> "GlobalState":
        return GlobalState(vars=self.vars.copy(), attrs=self.attrs.copy())


def canonical_json(doc) -> str:
    """The byte-stable JSON of every dcmon output: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def snapshot(gs: GlobalState) -> str:
    """Canonical byte-stable serialization; equal iff states are equal."""
    doc = {
        "vars": {
            name: {"kind": kind.value, "value": value_to_json(kind, value)}
            for name, kind, value in gs.vars.items_typed()
        },
        "attrs": {
            name: {"kind": kind.value, "value": value_to_json(kind, value)}
            for name, kind, value in gs.attrs.items_typed()
        },
    }
    return canonical_json(doc)


_SCALAR_BYTES = {VType.BOOL: 1, VType.INT: 8, VType.TIMESTAMP: 8, VType.DURATION: 8}


def _var_row(kind: VType, value: Value) -> Dict[str, object]:
    if kind is VType.TS_LIST:
        return {"kind": kind.value, "elements": len(value), "bytes": 8 * len(value)}
    if kind is VType.STRING:
        return {"kind": kind.value, "elements": 1, "bytes": len(value.encode("utf-8"))}
    return {"kind": kind.value, "elements": 1, "bytes": _SCALAR_BYTES[kind]}


def state_size(gs: GlobalState) -> Dict[str, object]:
    """Per-variable element counts and byte estimates."""
    vars_report = {name: _var_row(kind, value) for name, kind, value in gs.vars.items_typed()}
    attrs_report = {name: _var_row(kind, value) for name, kind, value in gs.attrs.items_typed()}
    total = sum(r["bytes"] for r in vars_report.values()) + sum(r["bytes"] for r in attrs_report.values())
    return {"vars": vars_report, "attrs": attrs_report, "total_bytes": total}


@dataclass(slots=True)
class MonitorRequest:
    """One round trip for the NeedsGlobal rules of one batch. The truth map
    holds the app-side conditions of all the rules, the bindings every
    event parameter any of them forwards."""

    seq: int
    app_id: str
    rule_ids: Tuple[int, ...]
    t: int
    appside_truth: Dict[int, bool]
    forwarded_bindings: Dict[str, Value]

    @property
    def payload(self) -> Dict[str, object]:
        return {"appside_truth": self.appside_truth, "forwarded_bindings": self.forwarded_bindings}


@dataclass(slots=True)
class MonitorReply:
    """Per-rule results, parallel to the request's rule ids."""

    seq: int
    guard_results: Tuple[bool, ...]
    appside_actions_to_run: Tuple[Tuple[int, ...], ...]
    faults: Tuple[Optional[str], ...]

    @property
    def guard_result(self) -> bool:
        """Whether any rule's guard held."""
        return True in self.guard_results

    @property
    def fault(self) -> Optional[str]:
        """The first rule's fault, if any rule faulted."""
        return next((f for f in self.faults if f is not None), None)

    @property
    def payload(self) -> Dict[str, object]:
        return {
            "guard_result": self.guard_results,
            "appside_actions_to_run": self.appside_actions_to_run,
            "fault": self.faults,
        }


@dataclass(slots=True)
class ChannelLogEntry:
    direction: str
    seq: int
    t: int
    app_id: str
    # the request's rule ids, in batch order
    rule_id: Tuple[int, ...]
    # the MonitorRequest or MonitorReply logged, not a copy
    message: Union[MonitorRequest, MonitorReply]

    @property
    def payload(self) -> Dict[str, object]:
        return self.message.payload

    def to_json(self) -> str:
        return canonical_json(
            {
                "direction": self.direction,
                "seq": self.seq,
                "t": self.t,
                "app_id": self.app_id,
                "rule_id": self.rule_id,
                "payload": self.payload,
            }
        )


def check_asymmetry(entries: List[ChannelLogEntry]) -> List[str]:
    """Violations of the app-initiated protocol; empty list means clean."""
    problems = []
    open_request: Optional[ChannelLogEntry] = None
    for i, e in enumerate(entries):
        if e.direction == APP_TO_CENTRAL:
            if open_request is not None:
                problems.append(f"entry {i}: request seq {e.seq} before reply to seq {open_request.seq}")
            open_request = e
        else:
            if open_request is None:
                problems.append(f"entry {i}: unsolicited reply seq {e.seq}")
            elif e.seq != open_request.seq or e.app_id != open_request.app_id:
                problems.append(
                    f"entry {i}: reply seq {e.seq} to {e.app_id} does not match request seq "
                    f"{open_request.seq} from {open_request.app_id}"
                )
            elif e.t != open_request.t or e.rule_id != open_request.rule_id:
                problems.append(
                    f"entry {i}: reply seq {e.seq} at t={e.t} for rules {e.rule_id} does not match "
                    f"its request at t={open_request.t} for rules {open_request.rule_id}"
                )
            open_request = None
    if open_request is not None:
        problems.append(f"request seq {open_request.seq} never answered")
    return problems


class CentralMonitor:
    """Evaluates GlobalSide guard parts and runs GlobalSide actions,
    one request at a time."""

    def __init__(self, cp: CompiledPolicy, gs: GlobalState, log: Optional[List[ChannelLogEntry]] = None):
        self.cp = cp
        self.gs = gs
        self.log: List[ChannelLogEntry] = log if log is not None else []

    def handle_request(self, req: MonitorRequest) -> MonitorReply:
        log = self.log
        log.append(ChannelLogEntry(APP_TO_CENTRAL, req.seq, req.t, req.app_id, req.rule_ids, req))
        reply = self._evaluate(req)
        log.append(ChannelLogEntry(CENTRAL_TO_APP, reply.seq, req.t, req.app_id, req.rule_ids, reply))
        return reply

    def _evaluate(self, req: MonitorRequest) -> MonitorReply:
        """Run the request's rules in order in one context. A condition is
        evaluated once until a rule's GlobalSide actions run. A rule that
        faults leaves no write behind."""
        cp = self.cp
        batch = cp.requests.get(req.rule_ids)
        if batch is not None:
            rules, expected = batch.sent, batch.truth_keys
        else:
            # a batch's shorter tuple, after an app-side condition faulted,
            # or one that names no batch: checked rule by rule
            n = len(cp.rules)
            rules = [cp.rules[rid] if 0 <= rid < n else None for rid in req.rule_ids]
            expected = {cid for rule in rules if rule is not None for cid in rule.app_condition_ids}
        stale = expected != req.appside_truth.keys()
        # positional, as in LocalMonitor._run_batch: (side, now, app_id,
        # app_name, bindings, local, global_vars, attrs)
        ctx = EvalContext(GLOBAL_SIDE, req.t, None, None, req.forwarded_bindings, None, self.gs.vars, self.gs.attrs)
        truth = dict(req.appside_truth)
        guards: List[bool] = []
        actions: List[Tuple[int, ...]] = []
        faults: List[Optional[str]] = []
        for rule in rules:
            guard, fault = False, None
            if rule is None:
                fault = "UnknownRule"
            elif stale:
                fault = "StaleTruthMap"
            else:
                try:
                    for cid in rule.global_condition_ids:
                        if cid not in truth:
                            truth[cid] = bool(eval_expr(cp.condition_code[cid], ctx))
                    guard = evaluate_guard(rule.guard, truth)
                    if guard and rule.global_action_ids:
                        truth = dict(req.appside_truth)
                        for aid in rule.global_action_ids:
                            exec_stmts(cp.action_code[aid], ctx)
                        ctx.undo.clear()  # the rule's writes stand
                except EvalError as ex:
                    rollback(ctx.undo)
                    guard, fault = False, f"EvalFault:{ex}"
            guards.append(guard)
            actions.append(rule.app_action_ids if guard else ())
            faults.append(fault)
        return MonitorReply(req.seq, tuple(guards), tuple(actions), tuple(faults))


class Channel:
    """Synchronous in-process request/reply port shared by local monitors."""

    def __init__(self, central: CentralMonitor):
        self.central = central
        self.connected = True
        self._next_seq = 0

    def disconnect(self) -> None:
        self.connected = False

    def request(
        self,
        app_id: str,
        rule_ids: Tuple[int, ...],
        t: int,
        appside_truth: Dict[int, bool],
        forwarded_bindings: Dict[str, Value],
    ) -> MonitorReply:
        """One round trip for the rules `rule_ids`."""
        if not self.connected:
            raise ChannelError("central monitor unreachable")
        seq = self._next_seq
        self._next_seq = seq + 1
        # positional: (seq, app_id, rule_ids, t, appside_truth, forwarded_bindings)
        return self.central.handle_request(MonitorRequest(seq, app_id, rule_ids, t, appside_truth, forwarded_bindings))


def replay_requests(
    cp: CompiledPolicy,
    entries: List[ChannelLogEntry],
    initial: Optional[GlobalState] = None,
) -> GlobalState:
    """Rebuild global state by re-handling the logged requests in order.

    Device-side attribute writes (catalog effects, app-side set_attr) are
    not channel traffic; start from `initial` when the trace includes them.
    """
    gs = initial.copy() if initial is not None else GlobalState()
    central = CentralMonitor(cp, gs)
    for e in entries:
        if e.direction == APP_TO_CENTRAL:
            central.handle_request(e.message)
    return gs
