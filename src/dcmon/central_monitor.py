"""Central monitor: owner of global state and the request/reply channel.

The channel is app-initiated only. A local monitor submits a request and
blocks for the reply; the central monitor handles one request at a time and
never sends anything unsolicited, so every reply in the log follows its
request and repeats that request's seq, app, time and rule ids.

A `Channel` serves one caller at a time and takes no lock: the simulator
runs every app in one loop. The log holds the `MonitorRequest` and
`MonitorReply` records themselves, not copies, so a logged request keeps
its truth map and forwarded bindings as given; the caller must not change
them after the request. `MonitorReply` keeps `guard_result` and `fault`,
one-value summaries of a reply, for the benchmark's tracer, which reads
them by name.

The central monitor evaluates every request in one context, built once. A
full request, a batch's rule ids with its truth keys, runs the steps that
batch holds from compile time, with no per-rule test, and a reply in which
no rule faulted shares the batch's all-None faults tuple. Any other request
derives its steps from the rules it names, once, and runs the same loop:
an unknown id or a stale truth map makes a rule's step run nothing, and
its fault is set from the start.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple, Union

from .engine import CentralStep, CompiledPolicy, central_step, eval_expr, evaluate_guard, exec_stmts
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


class _LoggedMessage:
    """The channel log's view of a request or a reply: its direction, a
    class constant, and the seq, time, app and rule ids of the request."""

    __slots__ = ()

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


@dataclass(slots=True)
class MonitorRequest(_LoggedMessage):
    """One round trip for the NeedsGlobal rules of one batch. The truth map
    holds the app-side conditions of all the rules, the bindings every
    event parameter any of them forwards."""

    direction: ClassVar[str] = APP_TO_CENTRAL

    seq: int
    app_id: str
    # the rule ids, in batch order
    rule_id: Tuple[int, ...]
    t: int
    appside_truth: Dict[int, bool]
    forwarded_bindings: Dict[str, Value]

    @property
    def payload(self) -> Dict[str, object]:
        return {"appside_truth": self.appside_truth, "forwarded_bindings": self.forwarded_bindings}


@dataclass(slots=True)
class MonitorReply(_LoggedMessage):
    """Per-rule results, parallel to the request's rule ids. The reply
    repeats its request's seq, app, rule ids and time."""

    direction: ClassVar[str] = CENTRAL_TO_APP

    seq: int
    app_id: str
    rule_id: Tuple[int, ...]
    t: int
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


ChannelMessage = Union[MonitorRequest, MonitorReply]


def check_asymmetry(entries: List[ChannelMessage]) -> List[str]:
    """Violations of the app-initiated protocol; empty list means clean."""
    problems = []
    open_request: Optional[ChannelMessage] = None
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

    def __init__(self, cp: CompiledPolicy, gs: GlobalState, log: Optional[List[ChannelMessage]] = None):
        self.cp = cp
        self.gs = gs
        self.log: List[ChannelMessage] = log if log is not None else []
        # One context for every request, which sets its time and bindings;
        # each rule clears or rolls back its undo log. Positional: (side,
        # now, app_id, app_name, bindings, local, global_vars, attrs)
        self._ctx = EvalContext(GLOBAL_SIDE, 0, None, None, None, None, gs.vars, gs.attrs)

    def handle_request(self, req: MonitorRequest) -> MonitorReply:
        log = self.log
        log.append(req)
        reply = self._evaluate(req)
        log.append(reply)
        return reply

    def _evaluate(self, req: MonitorRequest) -> MonitorReply:
        """Run the request's steps in order in one context. A condition is
        evaluated once until a rule's GlobalSide actions run. A rule that
        faults leaves no write behind."""
        cp = self.cp
        appside = req.appside_truth
        batch = cp.requests.get(req.rule_id)
        if batch is not None and batch.truth_keys == appside.keys():
            steps, faults = batch.steps, batch.no_faults
        else:
            steps, faults = _named_steps(cp, req)
        condition_code, action_code = cp.condition_code, cp.action_code
        ctx = self._ctx
        ctx.now = req.t
        ctx.event_bindings = req.forwarded_bindings
        truth = dict(appside)
        guards: List[bool] = []
        actions: List[Tuple[int, ...]] = []
        for condition_ids, guard, action_ids, app_action_ids in steps:
            try:
                for cid in condition_ids:
                    if cid not in truth:
                        truth[cid] = bool(eval_expr(condition_code[cid], ctx))
                if evaluate_guard(guard, truth):
                    if action_ids:
                        truth = dict(appside)
                        for aid in action_ids:
                            exec_stmts(action_code[aid], ctx)
                        ctx.undo.clear()  # the rule's writes stand
                    guards.append(True)
                    actions.append(app_action_ids)
                    continue
            except EvalError as ex:
                rollback(ctx.undo)
                k = len(guards)
                faults = (*faults[:k], f"EvalFault:{ex}", *faults[k + 1 :])
            guards.append(False)
            actions.append(())
        return MonitorReply(req.seq, req.app_id, req.rule_id, req.t, tuple(guards), tuple(actions), faults)


def _refused(truth: Dict[int, bool]) -> bool:
    return False


# the step of a named rule that does not run: its guard never holds
_REFUSED: CentralStep = ((), _refused, (), ())


def _named_steps(cp: CompiledPolicy, req: MonitorRequest) -> Tuple[Tuple[CentralStep, ...], Tuple[Optional[str], ...]]:
    """The steps and the starting faults of a request that is not a batch's
    full tuple with its truth keys: a shorter tuple, after an app-side
    condition faulted, one that names no batch, or a stale truth map. Each
    named rule runs, unless it is unknown (UnknownRule) or the truth map's
    keys are not those of the named rules' app-side conditions
    (StaleTruthMap)."""
    n = len(cp.rules)
    rules = [cp.rules[rid] if 0 <= rid < n else None for rid in req.rule_id]
    expected = {cid for rule in rules if rule is not None for cid in rule.app_condition_ids}
    stale = expected != req.appside_truth.keys()
    faults = tuple("UnknownRule" if rule is None else "StaleTruthMap" if stale else None for rule in rules)
    steps = tuple(_REFUSED if fault else central_step(rule) for rule, fault in zip(rules, faults))
    return steps, faults


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
        # positional: (seq, app_id, rule_id, t, appside_truth, forwarded_bindings)
        return self.central.handle_request(MonitorRequest(seq, app_id, rule_ids, t, appside_truth, forwarded_bindings))


def replay_requests(
    cp: CompiledPolicy,
    entries: List[ChannelMessage],
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
            central.handle_request(e)
    return gs
