"""Compilation of validated policies into a rule table keyed by call.

Each rule is classified by locality: a rule whose guard conditions and
actions are all ApplicationSide can be decided entirely inside the app's
own monitor; anything touching GlobalSide state needs the central monitor.

The rules of each phase of a call are split into batches at compile time.
The dispatch table maps a call, `(namespace, method)`, to the batch plans
of its before and its after phase, and a phase that no rule listens to
holds an empty plan; `rules_for` returns one phase's plan. The NeedsGlobal
rules of a batch share one channel round trip per occurrence, and a batch
without any sends nothing; a batch ends only where running its rules in
two phases (every app-side condition first, every outcome afterwards)
could change what a rule sees, and where two triggers bind an occurrence
differently. Each rule carries what its trigger binds, so a batch binds
its occurrence from its first rule, with no event declaration at hand.
Each batch also lists what its full request carries: the ids of its sent
rules' app-side conditions, the truth map's keys, and the event parameters
they forward; and the faults of a reply in which no rule faulted.

`compile_policy` also compiles each condition body, guard and action body
once, to a Python function generated as source, all of a policy's functions
in one module (see `lang/codegen.py`): a condition body becomes
`code(ctx) -> value`, an action body `code(ctx) -> blocked`, and a guard
`code(truth) -> bool` over the truth values of its conditions. They are the
policy's code slots, `condition_code`, `action_code` and `guard_code`,
parallel to its conditions, actions and rules; a `CompiledRule` holds no
code, so each rule and each batch is built once. Into the same module it
writes each batch's two functions, which decide the batch on either side
of the channel with no per-rule loop, and it sets them on the batch once
the module is built:

- the local one, `f(mon, batch, args, rv, t, faults, eval_expr) ->
  reason`, binds the occurrence by compile-time position, holds each
  app-side truth value in a local variable, sends the request with the
  batch's shared truth map for those values and decides each rule in
  order, its guard inlined; it hands the batch, in the context it bound,
  to the local monitor's rule-by-rule loop when an app-side condition
  faults, and the rules' outcomes when the channel is down or the reply
  holds a fault;
- the central one, `f(cm, batch, req, eval_expr, exec_stmts) -> reply`,
  answers the batch's full request, its rules' ids with its truth keys,
  with a `MonitorReply` that holds the batch's shared pair of guard
  results and actions for its guard bits.

Neither builds an empty dict: every empty map they set or send is the
shared `EMPTY` of `lang/channel.py`, and nothing writes into one.

Batches alike share both functions: each reads its rules from the batch it
is handed. Every body runs through the runners `eval_expr` and
`exec_stmts` below, which the monitors hand the batch functions, and
through its policy's code slots, read when it runs. The monitors'
rule-by-rule loops are the functions' fault paths: the local one takes
over from the local function, in the context it bound, and the central
one answers every request that is not a batch's full request. They read
each guard from `guard_code` and run it through `evaluate_guard`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .dsl.analysis import StateTypes
from .dsl.ast import (
    ActionDecl,
    ConditionDecl,
    EventDecl,
    Phase,
    PolicySpec,
    Side,
    guard_refs,
)
from .lang.codegen import Code, Module, dict_source
from .lang.eval import EvalContext
from .lang.nodes import NS_EVENT, AppendStmt, Assign, BlockStmt, PruneStmt, VarRef, walk_exprs
from .lang.values import Value, VType


class Locality(enum.Enum):
    LOCAL_ONLY = "LocalOnly"
    NEEDS_GLOBAL = "NeedsGlobal"

    def __str__(self) -> str:
        return self.value


# Compiled code runs only through these three runners, one call per
# condition body, guard and action body; the generated batch functions
# inline their guards, and get the other two from the monitors. They exist
# only so that the benchmark's tracer, which wraps these names in both
# monitor modules, can time each layer; they can go once its hooks point
# elsewhere.

def eval_expr(code: Code, ctx: EvalContext) -> Value:
    return code(ctx)


def evaluate_guard(guard: Code, truth: Dict[int, bool]) -> bool:
    return guard(truth)


def exec_stmts(code: Code, ctx: EvalContext) -> bool:
    return code(ctx)


Binding = Tuple[Optional[Tuple[str, ...]], Optional[str]]


@dataclass(frozen=True)
class CompiledRule:
    rule_id: int
    name: str
    trigger_id: int
    # what the trigger binds: its positional parameter names (None for
    # `(...)`) and its uponReturning name
    binding: Binding
    locality: Locality
    app_condition_ids: Tuple[int, ...]
    global_condition_ids: Tuple[int, ...]
    app_action_ids: Tuple[int, ...]
    global_action_ids: Tuple[int, ...]
    # event parameters the local monitor must ship with a request, because
    # the rule's GlobalSide parts reference them as event.<name>
    forwarded_params: Tuple[str, ...]
    # whether any app-side action of this rule blocks the call; used for
    # the fail-closed treatment of reply-level faults
    blocks: bool


class Batch:
    """Consecutive rules of one phase of a call whose triggers bind an
    occurrence alike. The local monitor binds the occurrence once,
    evaluates all their app-side conditions, sends one request for their
    NeedsGlobal rules, then decides each rule in order.

    A batch that sends keeps what its full requests and their replies
    share, filled in by its generated functions on first use: `truths`,
    each truth map by its values in `truth_ids` order, and `outcomes`,
    each reply's `(guard_results, appside_actions_to_run)` pair by its
    guard bits. Nothing may change a map or a tuple they hold."""

    __slots__ = (
        "rules", "sent", "rule_ids", "truth_ids", "truth_keys", "forwarded", "no_faults", "truths", "outcomes",
        "local", "central",
    )

    def __init__(self, rules: Sequence[CompiledRule]):
        self.rules = tuple(rules)
        # the NeedsGlobal rules, in order, and their ids: what the request
        # names when no app-side condition faults; empty for a batch of
        # LocalOnly rules, which sends nothing
        self.sent = tuple(r for r in self.rules if r.locality is Locality.NEEDS_GLOBAL)
        self.rule_ids = tuple(r.rule_id for r in self.sent)
        # the faults of a reply in which no rule faulted
        self.no_faults = (None,) * len(self.sent)
        # the request's truth-map keys and forwarded parameter names, each
        # once, in the order the sent rules name them
        self.truth_ids = tuple(dict.fromkeys(cid for r in self.sent for cid in r.app_condition_ids))
        self.truth_keys = frozenset(self.truth_ids)
        self.forwarded = tuple(dict.fromkeys(p for r in self.sent for p in r.forwarded_params))
        self.truths: Dict[Tuple[bool, ...], Dict[int, bool]] = {}
        self.outcomes: Dict[Tuple[bool, ...], Tuple[Tuple[bool, ...], Tuple[Tuple[int, ...], ...]]] = {}
        # the generated functions that decide the batch on each side of the
        # channel, which `compile_policy` sets once its module is built; a
        # batch that sends nothing has no central one
        self.local: Optional[Code] = None
        self.central: Optional[Code] = None


@dataclass(frozen=True, eq=False)
class CompiledPolicy:
    events: Tuple[EventDecl, ...]
    conditions: Tuple[ConditionDecl, ...]
    actions: Tuple[ActionDecl, ...]
    # each condition's body as code(ctx) -> value, and each action's as
    # code(ctx) -> blocked, parallel to `conditions` and `actions`
    condition_code: Tuple[Code, ...]
    action_code: Tuple[Code, ...]
    rules: Tuple[CompiledRule, ...]
    # each rule's guard as code(truth) -> bool over the truth values of its
    # conditions, parallel to `rules`
    guard_code: Tuple[Code, ...]
    # each call's (before, after) batch plans; a plan's batches cover the
    # phase's rules in order
    dispatch: Dict[Tuple[str, str], Tuple[Tuple[Batch, ...], Tuple[Batch, ...]]]
    state_types: StateTypes
    # each batch that sends a request, by its full rule ids; derived from
    # `dispatch`, so that `dataclasses.replace` rebuilds it with the plans
    requests: Dict[Tuple[int, ...], Batch] = field(init=False, repr=False)
    # the kinds tables of an app's local store and of the global store, by
    # name; derived from `state_types`
    local_kinds: Dict[str, VType] = field(init=False, repr=False)
    global_kinds: Dict[str, VType] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        requests = {b.rule_ids: b for plans in self.dispatch.values() for plan in plans for b in plan if b.sent}
        object.__setattr__(self, "requests", requests)
        for ns in ("local", "global"):
            kinds = {name: kind for (n, name), kind in self.state_types.items() if n == ns}
            object.__setattr__(self, f"{ns}_kinds", kinds)


def compile_policy(spec: PolicySpec, state_types: StateTypes) -> CompiledPolicy:
    """Build the dispatch table of a policy that passed validation, which
    inferred `state_types`, the kinds of its state variables. The code it
    generates relies on that validation and checks none of it again (see
    `lang/codegen.py`). Each batch it builds starts with empty tables of
    shared truth maps and reply outcomes, which its functions fill as
    they run; the tables hold at most one entry per vector of truth
    values or guard bits."""
    event_ids = {e.name: i for i, e in enumerate(spec.events)}
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    action_ids = {a.name: i for i, a in enumerate(spec.actions)}

    module = Module(state_types)
    condition_names = [module.expr(c.body) for c in spec.conditions]
    action_names = [module.stmts(a.body) for a in spec.actions]
    guard_names = [module.guard(r.guard, cond_ids) for r in spec.rules]
    rules: List[CompiledRule] = []
    for idx, rule in enumerate(spec.rules):
        trigger = spec.events[event_ids[rule.trigger]]
        ref_ids = sorted({cond_ids[r.name] for r in guard_refs(rule.guard)})
        app_conds = tuple(i for i in ref_ids if spec.conditions[i].side is Side.APPLICATION)
        global_conds = tuple(i for i in ref_ids if spec.conditions[i].side is Side.GLOBAL)
        acts = tuple(action_ids[a] for a in rule.actions)
        app_acts = tuple(i for i in acts if spec.actions[i].side is Side.APPLICATION)
        global_acts = tuple(i for i in acts if spec.actions[i].side is Side.GLOBAL)
        local_only = not global_conds and not global_acts
        declared = {p.name for p in trigger.params}
        blocks = any(
            any(isinstance(s, BlockStmt) for s in spec.actions[i].body) for i in app_acts
        )
        rules.append(
            CompiledRule(
                rule_id=idx,
                name=rule.name or f"rule#{idx}",
                trigger_id=event_ids[rule.trigger],
                binding=_bindings(trigger),
                locality=Locality.LOCAL_ONLY if local_only else Locality.NEEDS_GLOBAL,
                app_condition_ids=app_conds,
                global_condition_ids=global_conds,
                app_action_ids=app_acts,
                global_action_ids=global_acts,
                forwarded_params=tuple(sorted(_event_refs(spec, global_conds, global_acts) & declared)),
                blocks=blocks,
            )
        )

    phases: Dict[Tuple[str, str], Tuple[List[CompiledRule], List[CompiledRule]]] = {}
    for event in spec.events:
        phases.setdefault((event.pattern.api_namespace, event.pattern.method), ([], []))
    for rule in rules:
        event = spec.events[rule.trigger_id]
        phases[event.pattern.api_namespace, event.pattern.method][event.phase is Phase.AFTER].append(rule)
    dispatch = {k: (plan_batches(spec, before), plan_batches(spec, after)) for k, (before, after) in phases.items()}
    # each batch and the names of its local and central functions; a batch
    # that sends nothing has no central one
    batch_names = []
    for batch in (batch for plans in dispatch.values() for plan in plans for batch in plan):
        local = _local_function(module, spec, batch, cond_ids)
        batch_names.append((batch, local, _central_function(module, spec, batch, cond_ids) if batch.sent else None))

    functions = module.build()
    for batch, local, central in batch_names:
        batch.local, batch.central = functions[local], functions.get(central)
    return CompiledPolicy(
        events=spec.events,
        conditions=spec.conditions,
        actions=spec.actions,
        condition_code=tuple(functions[name] for name in condition_names),
        action_code=tuple(functions[name] for name in action_names),
        rules=tuple(rules),
        guard_code=tuple(functions[name] for name in guard_names),
        dispatch=dispatch,
        state_types=state_types,
    )


def rules_for(cp: CompiledPolicy, namespace: str, method: str, phase: Phase) -> Tuple[Batch, ...]:
    """The batch plan of the call's phase, or an empty tuple when no rule
    listens to it."""
    plans = cp.dispatch.get((namespace, method))
    return () if plans is None else plans[phase is Phase.AFTER]


def plan_batches(spec: PolicySpec, rules: Sequence[CompiledRule]) -> Tuple[Batch, ...]:
    """Split one phase's rules, in declaration order, into batches.

    A batch is cut before a rule whose app-side conditions read a local
    variable that an app-side action of an earlier rule of the batch
    writes, and before a rule whose trigger binds event parameters
    otherwise than the batch's: the batch's rules share condition values
    and forwarded bindings.
    """
    batches: List[Batch] = []
    current: List[CompiledRule] = []
    written: set = set()
    for rule in rules:
        if current and (_local_reads(spec, rule) & written or rule.binding != current[0].binding):
            batches.append(Batch(current))
            current, written = [], set()
        current.append(rule)
        written |= _local_writes(spec, rule)
    if current:
        batches.append(Batch(current))
    return tuple(batches)


# Each batch's two generated functions. They call every body through the
# policy's code slots, which they read from the monitor's policy when they
# run, and they take the batch as an argument: batches alike share them.


def _local_function(module: Module, spec: PolicySpec, batch: Batch, cond_ids: Dict[str, int]) -> str:
    """Write `f(mon, batch, args, rv, t, faults, eval_expr) -> reason`,
    which decides the batch as `LocalMonitor._run_batch` does, and return
    its name. It binds the occurrence by position, whose arity the trace
    event's check and validation fix, and sets the monitor's context, with
    `EMPTY` bindings when no app-side body and no forwarded parameter of
    the batch reads one. It hands the batch to `_run_batch`, in that
    context, when an app-side condition faults, and to its second phase
    `_decide` when the channel is down or the reply holds a fault. Each
    condition's truth value is a local `c<id>`, and each LocalOnly guard is
    inlined over them. The request's truth map is the one in `batch.truths`
    for its values, built on their first send."""
    names, returned = batch.rules[0].binding
    sources = {} if names is None else {name: f"args[{i}]" for i, name in enumerate(names)}
    if returned is not None:
        sources[returned] = "rv"
    cids = tuple(dict.fromkeys(cid for r in batch.rules for cid in r.app_condition_ids))
    app_actions = [aid for r in batch.rules for aid in r.app_action_ids]
    # a batch whose bodies read no parameter clears the bindings
    read = batch.forwarded or _event_refs(spec, cids, app_actions)
    calls: List[str] = []  # the module's functions that the inlined guards call
    lines = ["ctx = mon._ctx", "ctx.now = t", f"ctx.event_bindings = {dict_source(sources.items() if read else ())}"]
    if cids:
        lines += ["cc = mon.cp.condition_code", "try:"]
        lines += [f"    c{cid} = not not eval_expr(cc[{cid}], ctx)" for cid in cids]
        lines += ["except EvalError:", "    return mon._run_batch(batch, faults)"]
    if batch.sent:
        truth = dict_source((cid, f"c{cid}") for cid in batch.truth_ids)
        if batch.truth_ids:
            key = "(" + "".join(f"c{cid}, " for cid in batch.truth_ids) + ")"
            truth = f"batch.truths.get({key}) or batch.truths.setdefault({key}, {truth})"
        forwarded = dict_source((p, sources[p]) for p in batch.forwarded)
        values = dict_source((cid, f"c{cid}") for cid in cids)
        lines += [
            "try:",
            f"    reply = mon.channel.request(mon.app_id, batch.rule_ids, t, {truth}, {forwarded})",
            "except ChannelError:",
            f"    return mon._decide(batch, {values}, EMPTY, None, faults)",
            "if reply.faults is not batch.no_faults:",
            f"    return mon._decide(batch, {values}, EMPTY, reply, faults)",
        ]
        if any(r.app_action_ids for r in batch.sent):
            lines.append("ok, acts = reply.guard_results, reply.appside_actions_to_run")
    # each rule that may run app-side actions: the test that calls for
    # them, its index and the source of the actions' ids
    decided = []
    sent = 0
    for i, rule in enumerate(batch.rules):
        if rule.locality is Locality.LOCAL_ONLY:
            leaves = {cid: f"c{cid}" for cid in rule.app_condition_ids}
            guard = module.guard_source(spec.rules[rule.rule_id].guard, cond_ids, calls, leaves)
            decided.append((guard, i, repr(rule.app_action_ids)))
        else:
            if rule.app_action_ids:
                decided.append((f"ok[{sent}]", i, f"acts[{sent}]"))
            sent += 1
    lines += ["reason = None"] if decided else []
    for n, (test, i, action_ids) in enumerate(decided):
        run = f"mon._run_app_actions(batch.rules[{i}], {action_ids}, faults)"
        lines.append(f"if {test}:")
        lines += [f"    reason = {run}"] if n == 0 else [f"    blocked = {run}", "    reason = reason or blocked"]
    lines.append(f"return {'reason' if decided else 'None'}")
    return module.add("mon, batch, args, rv, t, faults, eval_expr", ["    " + line for line in lines], calls)


def _central_function(module: Module, spec: PolicySpec, batch: Batch, cond_ids: Dict[str, int]) -> str:
    """Write `f(cm, batch, req, eval_expr, exec_stmts) -> reply`, which
    answers the batch's full request as the central monitor's rule-by-rule
    loop does, and return its name. Each global condition's truth value is
    a local `c<id>`, None until it is evaluated and again once a rule's
    GlobalSide actions run; each app-side one is read from the request's
    truth map. Each rule's guard bit is a local `r<k>`; the reply holds the
    pair in `batch.outcomes` for the bits, built on their first reply. Its
    one `return` line builds the reply with `build_reply` of
    `lang/channel.py`, which skips the class call of `MonitorReply`."""
    lines = ["ctx = cm._ctx", "ctx.now = req.t", "ctx.event_bindings = req.forwarded_bindings"]
    global_ids = tuple(dict.fromkeys(cid for r in batch.sent for cid in r.global_condition_ids))
    if global_ids:
        lines += ["cc = cm.cp.condition_code", "".join(f"c{cid} = " for cid in global_ids) + "None"]
    if any(r.global_action_ids for r in batch.sent):
        lines.append("ac = cm.cp.action_code")
    if batch.truth_ids:
        lines.append("app = req.appside_truth")
    lines.append("faults = batch.no_faults")
    lines.append("".join(f"r{k} = " for k in range(len(batch.sent))) + "False")
    evaluated: List[int] = []
    calls: List[str] = []  # the module's functions that the inlined guards call
    for k, rule in enumerate(batch.sent):
        lines.append("try:")
        for cid in rule.global_condition_ids:
            test = f"if c{cid} is None: " if cid in evaluated else ""
            lines.append(f"    {test}c{cid} = not not eval_expr(cc[{cid}], ctx)")
        evaluated += [cid for cid in rule.global_condition_ids if cid not in evaluated]
        leaves = {cid: f"app[{cid}]" for cid in rule.app_condition_ids}
        leaves.update((cid, f"c{cid}") for cid in rule.global_condition_ids)
        guard = module.guard_source(spec.rules[rule.rule_id].guard, cond_ids, calls, leaves)
        if rule.global_action_ids:
            lines.append(f"    if {guard}:")
            lines += ["        " + "".join(f"c{cid} = " for cid in evaluated) + "None"] if evaluated else []
            lines += [f"        exec_stmts(ac[{aid}], ctx)" for aid in rule.global_action_ids]
            lines += ["        ctx.undo.clear()", f"        r{k} = True"]
        else:
            lines.append(f"    if {guard}: r{k} = True")
        lines += ["except EvalError as ex:", f"    faults = rule_fault(ctx.undo, faults, {k}, ex)"]
    guards = "(" + "".join(f"r{k}, " for k in range(len(batch.sent))) + ")"
    actions = "".join(f"{r.app_action_ids!r} if r{k} else (), " if r.app_action_ids else "(), " for k, r in enumerate(batch.sent))
    lines += [
        f"out = batch.outcomes.get({guards}) or batch.outcomes.setdefault({guards}, ({guards}, ({actions})))",
        "return build_reply(req.seq, req.app_id, req.rule_id, req.t, out[0], out[1], faults)",
    ]
    return module.add("cm, batch, req, eval_expr, exec_stmts", ["    " + line for line in lines], calls)


def _local_reads(spec: PolicySpec, rule: CompiledRule) -> FrozenSet[str]:
    return frozenset(
        e.name
        for cid in rule.app_condition_ids
        for e in walk_exprs(spec.conditions[cid].body)
        if isinstance(e, VarRef) and e.ns == "local"
    )


def _local_writes(spec: PolicySpec, rule: CompiledRule) -> FrozenSet[str]:
    return frozenset(
        s.name
        for aid in rule.app_action_ids
        for s in spec.actions[aid].body
        if isinstance(s, (Assign, AppendStmt, PruneStmt)) and s.ns == "local"
    )


def _bindings(event: EventDecl) -> Binding:
    """What an occurrence binds under `event`: its arguments, in order, to
    the positional names, unless the pattern is `(...)`, and the return
    value to the uponReturning name."""
    params = event.pattern.params
    return (None if params is None else tuple(p.name for p in params)), event.return_binding


def _event_refs(spec: PolicySpec, cond_ids: Sequence[int], action_ids: Sequence[int]) -> Set[str]:
    """The event parameters that the bodies of these conditions and actions read."""
    exprs = [e for cid in cond_ids for e in walk_exprs(spec.conditions[cid].body)]
    exprs += [e for aid in action_ids for stmt in spec.actions[aid].body for e in walk_exprs(stmt)]
    return {e.name for e in exprs if isinstance(e, VarRef) and e.ns == NS_EVENT}
