"""Per-application monitor.

Each app owns one LocalMonitor with isolated local state. `sim.run` hands
`intercept` the compile-time batch plan of each phase of a call that some
rule listens to, with the call's arguments, return value (None before the
call) and time; it returns the first block reason, or None, and appends
each fault to the caller's list. Each batch binds the occurrence once,
evaluates its rules' ApplicationSide conditions locally, ships the truth
values of its NeedsGlobal rules (plus any explicitly forwarded event
bindings) to the central monitor in one request, and then, rule by rule,
runs the ApplicationSide actions its guard or the reply calls for: the
rule's own ApplicationSide actions for a LocalOnly rule whose guard holds,
the reply's list for a NeedsGlobal rule. A batch of LocalOnly rules is
decided entirely here and sends nothing.

`intercept` runs each batch's generated local function (see `engine.py`),
which does all this with no per-rule loop while no app-side condition
faults and the reply holds no fault. The rule-by-rule loop below is its
fault path, reached only from it: `_run_batch` and its second phase
`_decide` take over a batch after one of its app-side conditions faults,
in the context the function bound, and evaluate the conditions again,
since condition bodies write nothing. `_decide` alone decides each rule
when the channel is down or the reply holds a fault, before any rule of
the batch has run.

A monitor evaluates every batch in one app-side context, built once, which
each batch's function gives its time and bindings (none, when no body of
the batch and no forwarded parameter reads one); each rule's writes are
kept or rolled back before the next rule runs, so nothing carries over.

The plan puts only triggers that bind alike in one batch, so a batch binds
the occurrence once, from its first rule's compile-time binding: the
arguments, in order, to the trigger's positional names (none for `(...)`),
and the return value to its uponReturning name. It tests no arity: the
`TraceEvent` constructor checks each call's arity against the catalog,
which validation makes every explicit pattern match.

A rule is atomic: if one of its actions faults, its local-variable and
device-attribute writes are rolled back and its block() is dropped, and the
fault blocks the call instead.

Failure handling is fail-closed: if the channel is down, any occurrence
that triggers a NeedsGlobal rule is blocked, with one ChannelError fault
per such rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .central_monitor import Channel, ChannelError, MonitorReply
from .engine import Batch, CompiledPolicy, CompiledRule, Locality, eval_expr, evaluate_guard, exec_stmts
# Nothing here calls `rules_for`: `sim.run` hands `intercept` each phase's
# plan. The benchmark's tracer hooks the name in this module and counts a
# missing hook, so it stays bound until those hooks move.
from .engine import rules_for  # noqa: F401
from .lang.channel import EMPTY
from .lang.eval import APP_SIDE, EvalContext, EvalError, rollback
from .lang.state import VarStore
from .lang.values import Value


class LocalMonitor:
    """`attrs` is the device attribute store, which app-side set_attr
    writes directly."""

    def __init__(self, app_id: str, app_name: str, cp: CompiledPolicy, channel: Channel, attrs: VarStore):
        self.app_id = app_id
        self.cp = cp
        self.channel = channel
        self.local = VarStore(cp.local_kinds)  # this app's own, never shared
        # One context for every batch, which sets its time and bindings;
        # each rule clears or rolls back its undo log. Positional: (side,
        # now, app_id, app_name, bindings, local, global_vars, attrs)
        self._ctx = EvalContext(APP_SIDE, 0, app_id, app_name, None, self.local, None, attrs)

    def intercept(
        self, plan: Tuple[Batch, ...], args: Tuple[Value, ...], return_value: Optional[Value], t: int, faults: List[str]
    ) -> Optional[str]:
        """Run every rule of one phase's batch plan on a call at time `t`, in
        declaration order, each guard seeing the state left by earlier
        rules. Returns the name of the first rule or fault that blocked the
        call, or None; appends each fault to `faults`."""
        reason = None
        for batch in plan:
            blocked_by = batch.local(self, batch, args, return_value, t, faults, eval_expr)
            reason = reason or blocked_by
        return reason

    # internals

    def _run_batch(self, batch: Batch, faults: List[str]) -> Optional[str]:
        """Decide the batch rule by rule, in the context whose time and
        bindings its generated function set before an app-side condition
        faulted."""
        ctx = self._ctx
        # Phase 1: every app-side condition of the batch. The plan
        # guarantees no earlier rule's action writes what these read.
        values: Dict[int, bool] = {}
        # rule id -> its condition's fault; a fresh map, since it is written
        faulted: Dict[int, str] = {}
        condition_code = self.cp.condition_code
        for rule in batch.rules:
            try:
                for cid in rule.app_condition_ids:
                    if cid not in values:
                        values[cid] = bool(eval_expr(condition_code[cid], ctx))
            except EvalError as ex:
                faulted[rule.rule_id] = f"EvalError:{ex.code}"

        # One round trip for the batch's NeedsGlobal rules whose conditions
        # did not fault, its maps in the order those rules name their keys;
        # a batch of LocalOnly rules sends none.
        reply = None
        sent = [r for r in batch.sent if r.rule_id not in faulted]
        if sent:
            # an empty map is the shared one, as the generated function's
            truth = {cid: values[cid] for r in sent for cid in r.app_condition_ids} or EMPTY
            forwarded = {p: ctx.event_bindings[p] for r in sent for p in r.forwarded_params} or EMPTY
            try:
                reply = self.channel.request(self.app_id, tuple(r.rule_id for r in sent), ctx.now, truth, forwarded)
            except ChannelError:
                pass
        return self._decide(batch, values, faulted, reply, faults)

    def _decide(
        self,
        batch: Batch,
        values: Dict[int, bool],
        faulted: Dict[int, str],
        reply: Optional[MonitorReply],
        faults: List[str],
    ) -> Optional[str]:
        """Phase 2: each rule's outcome, in declaration order, from the
        condition values, the faulted rules (the shared `EMPTY` when none
        faulted) and the reply, None if the channel is down. The reply's
        k-th entry is the k-th rule sent. Every fault blocks the call, but
        a reply's fault only when its rule blocks."""
        reason = None
        k = 0
        for rule in batch.rules:
            blocked_by = None
            if rule.rule_id in faulted:
                blocked_by = faulted[rule.rule_id]
                faults.append(blocked_by)
            elif rule.locality is Locality.LOCAL_ONLY:
                if evaluate_guard(self.cp.guard_code[rule.rule_id], values):
                    blocked_by = self._run_app_actions(rule, rule.app_action_ids, faults)
            elif reply is None:
                blocked_by = "ChannelError"
                faults.append(blocked_by)
            else:
                fault = reply.faults[k]
                if fault is not None:
                    faults.append(fault)
                    blocked_by = fault if rule.blocks else None
                elif reply.guard_results[k]:
                    blocked_by = self._run_app_actions(rule, reply.appside_actions_to_run[k], faults)
                k += 1
            reason = reason or blocked_by
        return reason

    def _run_app_actions(self, rule: CompiledRule, action_ids, faults: List[str]) -> Optional[str]:
        """Run the rule's app-side actions; return the rule's name if one
        blocked the call, or the fault that rolled them back."""
        ctx = self._ctx
        blocked = False
        try:
            for aid in action_ids:
                if exec_stmts(self.cp.action_code[aid], ctx):
                    blocked = True
        except EvalError as ex:
            rollback(ctx.undo)
            fault = f"EvalError:{ex.code}"
            faults.append(fault)
            return fault
        ctx.undo.clear()  # the rule's writes stand
        # validation rejects blocking actions on after-phase rules, so only
        # a before-phase occurrence gets here blocked
        return rule.name if blocked else None
