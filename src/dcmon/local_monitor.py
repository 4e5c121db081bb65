"""Per-application monitor.

Each app owns one LocalMonitor with isolated local state. Every rule of a
dispatch key runs through the key's compile-time batch plan: each batch
evaluates its rules' ApplicationSide conditions locally, ships the truth
values of its NeedsGlobal rules (plus any explicitly forwarded event
bindings) to the central monitor in one request, and then, rule by rule,
runs the ApplicationSide actions its guard or the reply calls for. A batch
of LocalOnly rules is decided entirely here and sends nothing.

A rule is atomic: if one of its actions faults, its local-variable and
device-attribute writes are rolled back and its block() is dropped, and the
fault blocks the call instead.

Failure handling is fail-closed: if the channel is down, any occurrence
that triggers a NeedsGlobal rule is blocked, with one ChannelError fault
per such rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .central_monitor import Channel, ChannelError
from .dsl.ast import EventDecl, Phase
from .engine import Batch, CompiledPolicy, CompiledRule, Locality, evaluate_guard, rules_for
from .lang.eval import APP_SIDE, EvalContext, EvalError, eval_expr, exec_stmts, rollback
from .lang.state import VarStore
from .lang.values import Value

PROCEED = "Proceed"
BLOCK = "Block"

# per-app monitor store, never shared between apps
LocalState = VarStore


class ArityMismatch(Exception):
    pass


@dataclass(frozen=True)
class EventOccurrence:
    app_id: str
    app_name: str
    namespace: str
    method: str
    phase: Phase
    args: Tuple[Value, ...]
    return_value: Optional[Value]
    t: int

    @property
    def call(self) -> str:
        return f"{self.namespace}.{self.method}"


@dataclass
class InterceptResult:
    decision: str
    reason: Optional[str] = None
    faults: Tuple[str, ...] = ()

    @property
    def blocked(self) -> bool:
        return self.decision == BLOCK


def bind_params(occ: EventOccurrence, decl: EventDecl) -> Dict[str, Value]:
    """Positional argument bindings plus the uponReturning binding."""
    out: Dict[str, Value] = {}
    positional = decl.pattern.params
    if positional is not None:
        if len(positional) != len(occ.args):
            raise ArityMismatch(
                f"{decl.name} declares {len(positional)} parameters, call has {len(occ.args)} arguments"
            )
        for p, v in zip(positional, occ.args):
            out[p.name] = v
    if decl.return_binding is not None and occ.phase is Phase.AFTER:
        out[decl.return_binding] = occ.return_value
    return out


def pattern_matches(decl: EventDecl, occ: EventOccurrence) -> bool:
    pattern = decl.pattern
    if pattern.api_namespace != occ.namespace or pattern.method != occ.method:
        return False
    if decl.phase is not occ.phase:
        return False
    arity = pattern.arg_arity
    return arity is None or arity == len(occ.args)


# marks a NeedsGlobal rule whose outcome comes from the batch's reply
_SENT = object()


class LocalMonitor:
    """`attrs` is the device attribute store, which app-side set_attr
    writes directly."""

    def __init__(self, app_id: str, app_name: str, cp: CompiledPolicy, channel: Optional[Channel], attrs: VarStore):
        self.app_id = app_id
        self.app_name = app_name
        self.cp = cp
        self.channel = channel
        self.attrs = attrs
        self.local = LocalState()

    def intercept(self, occ: EventOccurrence) -> InterceptResult:
        """Run every rule triggered by this occurrence, in declaration
        order, each guard seeing the state left by earlier rules."""
        result = InterceptResult(decision=PROCEED)
        rules = rules_for(self.cp, occ.namespace, occ.method, occ.phase)
        if rules:
            for batch in rules.batches:
                self._run_batch(batch, occ, result)
        return result

    # internals

    def _ctx(self, occ: EventOccurrence, bindings: Dict[str, Value]) -> EvalContext:
        # positional (side, now, state_types, app_id, app_name, bindings,
        # local, global_vars, attrs): matching keywords made building the
        # context about 0.35 us slower on Python 3.11
        return EvalContext(APP_SIDE, occ.t, self.cp.state_types, self.app_id, self.app_name, bindings, self.local, None, self.attrs)

    def _block(self, result: InterceptResult, reason: str) -> None:
        if not result.blocked:
            result.decision = BLOCK
            result.reason = reason

    def _fault(self, result: InterceptResult, fault: str) -> None:
        result.faults = result.faults + (fault,)

    def _run_batch(self, batch: Batch, occ: EventOccurrence, result: InterceptResult) -> None:
        # Phase 1: every app-side condition of the batch. The plan
        # guarantees no earlier rule's action writes what these read.
        values: Dict[int, bool] = {}
        steps = []
        events, conditions = self.cp.events, self.cp.conditions
        event = ctx = None
        matches = False
        for rule in batch.rules:
            if events[rule.trigger_id] is not event:
                event = events[rule.trigger_id]
                matches = pattern_matches(event, occ)
                if matches:
                    ctx = self._ctx(occ, bind_params(occ, event))
            if not matches:
                continue
            try:
                for cid in rule.app_condition_ids:
                    if cid not in values:
                        values[cid] = bool(eval_expr(conditions[cid].body, ctx))
            except EvalError as ex:
                steps.append((rule, ctx, f"EvalError:{ex.code}"))
                continue
            if rule.locality is Locality.LOCAL_ONLY:
                steps.append((rule, ctx, evaluate_guard(rule.guard, values)))
            else:
                steps.append((rule, ctx, _SENT))

        # One round trip for the batch's NeedsGlobal rules; a batch of
        # LocalOnly rules names none.
        reply = None
        if batch.rule_ids and self.channel is not None:
            sent = [(rule, ctx.event_bindings) for rule, ctx, outcome in steps if outcome is _SENT]
            if sent:
                truth = {cid: values[cid] for rule, _ in sent for cid in rule.app_condition_ids}
                forwarded = {p: b[p] for rule, b in sent for p in rule.forwarded_params if p in b}
                rule_ids = batch.rule_ids if len(sent) == len(batch.rule_ids) else tuple(r.rule_id for r, _ in sent)
                try:
                    reply = self.channel.request(self.app_id, rule_ids, occ.t, truth, forwarded)
                except ChannelError:
                    pass

        # Phase 2: each rule's outcome, in declaration order.
        k = 0
        for rule, ctx, outcome in steps:
            if outcome is _SENT:
                if reply is None:
                    self._fault(result, "ChannelError")
                    self._block(result, "ChannelError")
                    continue
                fault = reply.faults[k]
                if fault is not None:
                    self._fault(result, fault)
                    if rule.blocks:
                        self._block(result, fault)
                elif reply.guard_results[k]:
                    self._run_app_actions(rule, reply.appside_actions_to_run[k], ctx, occ, result)
                k += 1
            elif outcome is True:
                self._run_app_actions(rule, rule.action_ids, ctx, occ, result)
            elif outcome is not False:
                self._fault(result, outcome)
                self._block(result, outcome)

    def _run_app_actions(
        self,
        rule: CompiledRule,
        action_ids,
        ctx: EvalContext,
        occ: EventOccurrence,
        result: InterceptResult,
    ) -> None:
        blocked = False
        try:
            for aid in action_ids:
                if aid in rule.app_action_ids and exec_stmts(self.cp.actions[aid].body, ctx):
                    blocked = True
        except EvalError as ex:
            rollback(ctx.undo)
            fault = f"EvalError:{ex.code}"
            self._fault(result, fault)
            self._block(result, fault)
            return
        ctx.undo.clear()  # the rule's writes stand
        if blocked and occ.phase is Phase.BEFORE:
            # validation rejects blocking actions on after-phase rules;
            # nothing to suppress once the call returned
            self._block(result, rule.name)
