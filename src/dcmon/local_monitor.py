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
LocalOnly rules is decided entirely here and sends nothing. A batch whose
every rule is sent, a compile-time fact, sends its condition values as the
truth map and reads the reply's columns in step with its rules, unless a
condition faulted or the channel is down.

A monitor evaluates every batch in one app-side context, built once, which
each batch gives its time and bindings; each rule's writes are kept or
rolled back before the next rule runs, so nothing carries over.

The plan puts only triggers that bind alike in one batch, so a batch binds
the occurrence once, from its first rule's compile-time binding: the
arguments, in order, to the trigger's positional names (none for `(...)`),
and the return value to its uponReturning name. run() checks each call's
arity against the catalog, which the triggers match; an occurrence from a
direct caller whose arity differs from the binding's skips the batch.

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
from .dsl.ast import Phase
from .engine import Batch, CompiledPolicy, CompiledRule, Locality, eval_expr, evaluate_guard, exec_stmts, rules_for
from .lang.eval import APP_SIDE, EvalContext, EvalError, rollback
from .lang.state import VarStore
from .lang.values import Value


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


@dataclass(slots=True)
class InterceptResult:
    """`reason` names the first rule or fault that blocked the call, and is
    None while nothing has."""

    reason: Optional[str] = None
    faults: Tuple[str, ...] = ()

    @property
    def blocked(self) -> bool:
        return self.reason is not None


class LocalMonitor:
    """`attrs` is the device attribute store, which app-side set_attr
    writes directly."""

    def __init__(self, app_id: str, app_name: str, cp: CompiledPolicy, channel: Channel, attrs: VarStore):
        self.app_id = app_id
        self.app_name = app_name
        self.cp = cp
        self.channel = channel
        self.attrs = attrs
        self.local = VarStore()  # this app's own, never shared
        # One context for every batch, which sets its time and bindings;
        # each rule clears or rolls back its undo log. Positional: (side,
        # now, app_id, app_name, bindings, local, global_vars, attrs)
        self._ctx = EvalContext(APP_SIDE, 0, app_id, app_name, None, self.local, None, attrs)

    def intercept(self, occ: EventOccurrence) -> InterceptResult:
        """Run every rule triggered by this occurrence, in declaration
        order, each guard seeing the state left by earlier rules."""
        result = InterceptResult()
        for batch in rules_for(self.cp, occ.namespace, occ.method, occ.phase):
            self._run_batch(batch, occ, result)
        return result

    # internals

    def _fail(self, result: InterceptResult, fault: str, blocks: bool = True) -> None:
        result.faults = result.faults + (fault,)
        if blocks and result.reason is None:
            result.reason = fault

    def _run_batch(self, batch: Batch, occ: EventOccurrence, result: InterceptResult) -> None:
        # The call and phase decide everything the triggers match on except
        # arity, and the plan gives every trigger of the batch the same
        # binding: the first one binds the occurrence for all.
        names, returned = batch.rules[0].binding
        if names is None:
            bindings = {}
        elif len(names) == len(occ.args):
            bindings = dict(zip(names, occ.args))
        else:
            return
        if returned is not None:  # only after-phase triggers have one
            bindings[returned] = occ.return_value
        ctx = self._ctx
        ctx.now = occ.t
        ctx.event_bindings = bindings

        # Phase 1: every app-side condition of the batch. The plan
        # guarantees no earlier rule's action writes what these read.
        values: Dict[int, bool] = {}
        faulted: Optional[Dict[int, str]] = None  # rule id -> its condition's fault
        condition_code = self.cp.condition_code
        for rule in batch.rules:
            try:
                for cid in rule.app_condition_ids:
                    if cid not in values:
                        values[cid] = bool(eval_expr(condition_code[cid], ctx))
            except EvalError as ex:
                if faulted is None:
                    faulted = {}
                faulted[rule.rule_id] = f"EvalError:{ex.code}"

        # One round trip for the batch's NeedsGlobal rules whose conditions
        # did not fault; a batch of LocalOnly rules sends none. When every
        # rule is sent and none faulted, `values` is the truth map: the
        # same keys, in the same order.
        whole = faulted is None and batch.all_sent
        reply = None
        request = batch
        if faulted is not None:
            request = Batch([r for r in batch.sent if r.rule_id not in faulted])
        if request.sent:
            truth = values if whole else {cid: values[cid] for cid in request.truth_ids}
            forwarded = {p: bindings[p] for p in request.forwarded}
            try:
                reply = self.channel.request(self.app_id, request.rule_ids, occ.t, truth, forwarded)
            except ChannelError:
                pass

        # Phase 2: each rule's outcome, in declaration order; the reply's
        # k-th entry is the k-th rule sent, so a whole batch reads the
        # reply's columns in step with its rules.
        if whole and reply is not None:
            for rule, guard, action_ids, fault in zip(
                batch.rules, reply.guard_results, reply.appside_actions_to_run, reply.faults
            ):
                if fault is not None:
                    self._fail(result, fault, rule.blocks)
                elif guard:
                    self._run_app_actions(rule, action_ids, result)
            return
        k = 0
        for rule in batch.rules:
            if faulted is not None and rule.rule_id in faulted:
                self._fail(result, faulted[rule.rule_id])
            elif rule.locality is Locality.LOCAL_ONLY:
                if evaluate_guard(rule.guard, values):
                    self._run_app_actions(rule, rule.app_action_ids, result)
            elif reply is None:
                self._fail(result, "ChannelError")
            else:
                fault = reply.faults[k]
                if fault is not None:
                    self._fail(result, fault, rule.blocks)
                elif reply.guard_results[k]:
                    self._run_app_actions(rule, reply.appside_actions_to_run[k], result)
                k += 1

    def _run_app_actions(self, rule: CompiledRule, action_ids, result: InterceptResult) -> None:
        ctx = self._ctx
        blocked = False
        try:
            for aid in action_ids:
                if exec_stmts(self.cp.action_code[aid], ctx):
                    blocked = True
        except EvalError as ex:
            rollback(ctx.undo)
            self._fail(result, f"EvalError:{ex.code}")
            return
        ctx.undo.clear()  # the rule's writes stand
        # validation rejects blocking actions on after-phase rules, so only
        # a before-phase occurrence gets here blocked
        if blocked and result.reason is None:
            result.reason = rule.name
