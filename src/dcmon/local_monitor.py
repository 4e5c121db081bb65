"""Per-application monitor.

Each app owns one LocalMonitor with isolated local state. Every rule of a
phase of a call runs through that phase's compile-time batch plan, which
`rules_for` looks up in the policy's dispatch table: each batch
binds the occurrence once, evaluates its rules' ApplicationSide conditions
locally, ships the truth values of its NeedsGlobal rules (plus any
explicitly forwarded event bindings) to the central monitor in one request,
and then, rule by rule, runs the ApplicationSide actions its guard or the
reply calls for: the rule's own ApplicationSide actions for a LocalOnly
rule whose guard holds, the reply's list for a NeedsGlobal rule. A batch of
LocalOnly rules is decided entirely here and sends nothing.

The plan puts only triggers that bind alike in one batch, so the batch's
first trigger binds the occurrence for every rule. run() checks each call's
arity against the catalog, which the triggers match; an occurrence from a
direct caller whose arity differs from the batch's trigger skips the batch.

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
from .engine import Batch, CompiledPolicy, CompiledRule, Locality, eval_expr, evaluate_guard, exec_stmts, rules_for
from .lang.eval import APP_SIDE, EvalContext, EvalError, rollback
from .lang.state import VarStore
from .lang.values import Value

# per-app monitor store, never shared between apps
LocalState = VarStore


class ArityMismatch(Exception):
    pass


@dataclass(slots=True)
class EventOccurrence:
    """One phase of a call, as the app's own LocalMonitor sees it; the
    monitor knows which app it belongs to."""

    namespace: str
    method: str
    phase: Phase
    args: Tuple[Value, ...]
    return_value: Optional[Value]
    t: int


@dataclass
class InterceptResult:
    """`reason` names the first rule or fault that blocked the call, and is
    None while nothing has."""

    reason: Optional[str] = None
    faults: Tuple[str, ...] = ()

    @property
    def blocked(self) -> bool:
        return self.reason is not None


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


# marks a NeedsGlobal rule whose outcome comes from the batch's reply
_SENT = object()


class LocalMonitor:
    """`attrs` is the device attribute store, which app-side set_attr
    writes directly."""

    def __init__(self, app_id: str, app_name: str, cp: CompiledPolicy, channel: Channel, attrs: VarStore):
        self.app_id = app_id
        self.app_name = app_name
        self.cp = cp
        self.channel = channel
        self.attrs = attrs
        self.local = LocalState()

    def intercept(self, occ: EventOccurrence) -> InterceptResult:
        """Run every rule triggered by this occurrence, in declaration
        order, each guard seeing the state left by earlier rules."""
        result = InterceptResult()
        for batch in rules_for(self.cp, occ.namespace, occ.method, occ.phase):
            self._run_batch(batch, occ, result)
        return result

    # internals

    def _block(self, result: InterceptResult, reason: str) -> None:
        if result.reason is None:
            result.reason = reason

    def _fault(self, result: InterceptResult, fault: str) -> None:
        result.faults = result.faults + (fault,)

    def _run_batch(self, batch: Batch, occ: EventOccurrence, result: InterceptResult) -> None:
        # The call and phase decide everything the triggers match on except
        # arity, and the plan gives every trigger of the batch the same
        # bindings: the first one binds the occurrence for all.
        event = self.cp.events[batch.rules[0].trigger_id]
        arity = event.pattern.arg_arity
        if arity is not None and arity != len(occ.args):
            return
        bindings = bind_params(occ, event)
        # positional (side, now, app_id, app_name, bindings, local,
        # global_vars, attrs): matching keywords made building the context
        # about 0.35 us slower on Python 3.11
        ctx = EvalContext(APP_SIDE, occ.t, self.app_id, self.app_name, bindings, self.local, None, self.attrs)

        # Phase 1: every app-side condition of the batch. The plan
        # guarantees no earlier rule's action writes what these read.
        values: Dict[int, bool] = {}
        steps = []
        condition_code = self.cp.condition_code
        for rule in batch.rules:
            try:
                for cid in rule.app_condition_ids:
                    if cid not in values:
                        values[cid] = bool(eval_expr(condition_code[cid], ctx))
            except EvalError as ex:
                steps.append((rule, f"EvalError:{ex.code}"))
                continue
            if rule.locality is Locality.LOCAL_ONLY:
                steps.append((rule, evaluate_guard(rule.guard, values)))
            else:
                steps.append((rule, _SENT))

        # One round trip for the batch's NeedsGlobal rules; a batch of
        # LocalOnly rules names none.
        reply = None
        if batch.rule_ids:
            sent = [rule for rule, outcome in steps if outcome is _SENT]
            if sent:
                truth = {cid: values[cid] for rule in sent for cid in rule.app_condition_ids}
                forwarded = {p: bindings[p] for rule in sent for p in rule.forwarded_params if p in bindings}
                rule_ids = batch.rule_ids if len(sent) == len(batch.rule_ids) else tuple(r.rule_id for r in sent)
                try:
                    reply = self.channel.request(self.app_id, rule_ids, occ.t, truth, forwarded)
                except ChannelError:
                    pass

        # Phase 2: each rule's outcome, in declaration order.
        k = 0
        for rule, outcome in steps:
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
                self._run_app_actions(rule, rule.app_action_ids, ctx, occ, result)
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
                if exec_stmts(self.cp.action_code[aid], ctx):
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
