"""Central monitor: owner of global state and the request/reply channel.

The channel is app-initiated only. A local monitor submits a request and
blocks for the reply; the central monitor handles one request at a time and
never sends anything unsolicited, so every reply in the log follows its
request and repeats that request's seq, app, time and rule ids.

A `Channel` serves one caller at a time and takes no lock: the simulator
runs every app in one loop. The log holds the `MonitorRequest` and
`MonitorReply` records themselves (see `lang/channel.py`), not copies, and
records share their maps and tuples: a batch's requests share one truth
map per vector of truth values, every empty map the monitors send is
`EMPTY`, and a batch's replies share one pair of guard results and actions
per vector of guard bits. Nothing may change a logged map or tuple.
`MonitorReply` keeps `guard_result` and `fault`, one-value summaries of a
reply, for the benchmark's tracer, which reads them by name.

The central monitor evaluates every request in one context, built once. A
full request, a batch's rule ids with its truth keys, is answered by that
batch's generated central function (see `engine.py`), which builds the
reply with no per-rule loop: its guard results and actions are the batch's
shared pair, and a reply in which no rule faulted shares the batch's
all-None faults tuple. Every other request, such as a partial one, which
names only the rules of a batch whose app-side conditions did not fault,
goes to one loop over the rules it names. The loop reads each rule's
conditions, guard and actions from the policy's code slots and builds its
reply's tuples of its own. An unknown id or a stale truth map makes a rule
run nothing; its fault is set before the loop. Both build their reply, as
`Channel.request` builds the request, through `lang/channel.py`'s record
builders, which skip the class call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .catalog import DEVICE_ATTRS
from .engine import CompiledPolicy, eval_expr, evaluate_guard, exec_stmts
from .lang.channel import APP_TO_CENTRAL, MonitorReply, MonitorRequest, build_reply, build_request
# the log's other direction, for the callers that read the log
from .lang.channel import CENTRAL_TO_APP  # noqa: F401
from .lang.eval import GLOBAL_SIDE, ChannelError, EvalContext, EvalError, rule_fault
from .lang.state import VarStore
from .lang.values import Value, VType, canonical_json, value_to_json


@dataclass
class GlobalState:
    vars: VarStore
    attrs: VarStore

    @classmethod
    def empty(cls, kinds) -> "GlobalState":
        """Nothing stored yet: stores over `kinds` and over `DEVICE_ATTRS`."""
        return cls(VarStore(kinds), VarStore(DEVICE_ATTRS))

    def copy(self) -> "GlobalState":
        return GlobalState(vars=self.vars.copy(), attrs=self.attrs.copy())


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
        """Log the request, answer it and log the reply. A full request is
        answered by its batch's generated function, any other by
        `_run_rules`; the rules run in order in one context."""
        log = self.log
        log.append(req)
        batch = self.cp.requests.get(req.rule_id)
        if batch is not None and batch.truth_keys == req.appside_truth.keys():
            reply = batch.central(self, batch, req, eval_expr, exec_stmts)
        else:
            # Inline here, the loop made the branch above 2-5% slower on
            # the benchmark's NeedsGlobal workloads (Python 3.11), though
            # that branch runs the same bytecode either way.
            reply = self._run_rules(req)
        log.append(reply)
        return reply

    def _run_rules(self, req: MonitorRequest) -> MonitorReply:
        """Run each rule the request names, in order: a rule faults
        UnknownRule if no rule has its id, StaleTruthMap if the truth map's
        keys are not those of the named rules' app-side conditions, and
        otherwise runs its GlobalSide conditions, its guard and its
        GlobalSide actions from the policy's code slots. A condition is
        evaluated once until a rule's GlobalSide actions run. A rule that
        faults leaves no write behind."""
        cp = self.cp
        appside = req.appside_truth
        n = len(cp.rules)
        rules = [cp.rules[rid] if 0 <= rid < n else None for rid in req.rule_id]
        stale = {cid for rule in rules if rule is not None for cid in rule.app_condition_ids} != appside.keys()
        faults = tuple("UnknownRule" if rule is None else "StaleTruthMap" if stale else None for rule in rules)
        condition_code, guard_code, action_code = cp.condition_code, cp.guard_code, cp.action_code
        ctx = self._ctx
        ctx.now = req.t
        ctx.event_bindings = req.forwarded_bindings
        truth = dict(appside)
        guards: List[bool] = []
        actions: List[Tuple[int, ...]] = []
        for rule in rules:
            if rule is not None and not stale:
                try:
                    for cid in rule.global_condition_ids:
                        if cid not in truth:
                            truth[cid] = bool(eval_expr(condition_code[cid], ctx))
                    if evaluate_guard(guard_code[rule.rule_id], truth):
                        if rule.global_action_ids:
                            truth = dict(appside)
                            for aid in rule.global_action_ids:
                                exec_stmts(action_code[aid], ctx)
                            ctx.undo.clear()  # the rule's writes stand
                        guards.append(True)
                        actions.append(rule.app_action_ids)
                        continue
                except EvalError as ex:
                    faults = rule_fault(ctx.undo, faults, len(guards), ex)
            guards.append(False)
            actions.append(())
        return build_reply(req.seq, req.app_id, req.rule_id, req.t, tuple(guards), tuple(actions), faults)


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
        """One round trip for the rules `rule_ids`. The request is built by
        `build_request`, which the replay calls in place of the class
        `MonitorRequest` (see `lang/channel.py`'s `record_builder`)."""
        if not self.connected:
            raise ChannelError("central monitor unreachable")
        seq = self._next_seq
        self._next_seq = seq + 1
        # positional: (seq, app_id, rule_id, t, appside_truth, forwarded_bindings)
        return self.central.handle_request(build_request(seq, app_id, rule_ids, t, appside_truth, forwarded_bindings))


def replay_requests(
    cp: CompiledPolicy,
    entries: List[ChannelMessage],
    initial: Optional[GlobalState] = None,
) -> GlobalState:
    """Rebuild global state by re-handling the logged requests in order.

    Device-side attribute writes (catalog effects, app-side set_attr) are
    not channel traffic; start from `initial` when the trace includes them.
    """
    gs = initial.copy() if initial is not None else GlobalState.empty(cp.global_kinds)
    central = CentralMonitor(cp, gs)
    for e in entries:
        if e.direction == APP_TO_CENTRAL:
            central.handle_request(e)
    return gs
