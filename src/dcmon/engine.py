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
differently.

`compile_policy` also compiles each condition body, guard and action body
once, to a closure (see `lang/closures.py`): a condition body becomes
`code(ctx) -> value`, an action body `code(ctx) -> blocked`, and a guard
`code(truth) -> bool` over the truth values of its conditions. The monitors
run them through the runners `eval_expr`, `evaluate_guard` and `exec_stmts`
below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
from .lang.closures import Code, compile_expr, compile_guard, compile_stmts
from .lang.eval import EvalContext
from .lang.nodes import AppendStmt, Assign, BlockStmt, PruneStmt, VarRef, walk_exprs
from .lang.values import Value


class Locality(enum.Enum):
    LOCAL_ONLY = "LocalOnly"
    NEEDS_GLOBAL = "NeedsGlobal"

    def __str__(self) -> str:
        return self.value


# The monitors run compiled code only through these three runners, one call
# per condition body, guard and action body. They exist only so that the
# benchmark's tracer, which wraps these names in both monitor modules, can
# time each layer; they can go once its hooks point elsewhere.

def eval_expr(code: Code, ctx: EvalContext) -> Value:
    return code(ctx)


def evaluate_guard(guard: Code, truth: Dict[int, bool]) -> bool:
    return guard(truth)


def exec_stmts(code: Code, ctx: EvalContext) -> bool:
    return code(ctx)


@dataclass(frozen=True)
class CompiledRule:
    rule_id: int
    name: str
    trigger_id: int
    # code(truth) -> bool over the truth values of the rule's conditions
    guard: Code
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
    NeedsGlobal rules, then applies each rule's outcome in order."""

    __slots__ = ("rules", "rule_ids")

    def __init__(self, rules: Sequence[CompiledRule]):
        self.rules = tuple(rules)
        # the request's rule ids when every NeedsGlobal rule is sent; empty
        # for a batch of LocalOnly rules, which sends nothing
        self.rule_ids = tuple(r.rule_id for r in self.rules if r.locality is Locality.NEEDS_GLOBAL)


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
    # each call's (before, after) batch plans; a plan's batches cover the
    # phase's rules in order
    dispatch: Dict[Tuple[str, str], Tuple[Tuple[Batch, ...], Tuple[Batch, ...]]]
    state_types: StateTypes

    def rule_by_id(self, rule_id: int) -> Optional[CompiledRule]:
        if 0 <= rule_id < len(self.rules):
            return self.rules[rule_id]
        return None


def compile_policy(spec: PolicySpec, state_types: StateTypes) -> CompiledPolicy:
    """Build the dispatch table of a policy that passed validation, which
    inferred `state_types`, the kinds of its state variables."""
    event_ids = {e.name: i for i, e in enumerate(spec.events)}
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    action_ids = {a.name: i for i, a in enumerate(spec.actions)}

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
        forwarded = _forwarded_params(spec, global_conds, global_acts, trigger)
        blocks = any(
            any(isinstance(s, BlockStmt) for s in spec.actions[i].body) for i in app_acts
        )
        rules.append(
            CompiledRule(
                rule_id=idx,
                name=rule.name or f"rule#{idx}",
                trigger_id=event_ids[rule.trigger],
                guard=compile_guard(rule.guard, cond_ids),
                locality=Locality.LOCAL_ONLY if local_only else Locality.NEEDS_GLOBAL,
                app_condition_ids=app_conds,
                global_condition_ids=global_conds,
                app_action_ids=app_acts,
                global_action_ids=global_acts,
                forwarded_params=forwarded,
                blocks=blocks,
            )
        )

    dispatch: Dict[Tuple[str, str], Tuple[List[CompiledRule], List[CompiledRule]]] = {}
    for event in spec.events:
        dispatch.setdefault((event.pattern.api_namespace, event.pattern.method), ([], []))
    for rule in rules:
        event = spec.events[rule.trigger_id]
        dispatch[event.pattern.api_namespace, event.pattern.method][event.phase is Phase.AFTER].append(rule)

    return CompiledPolicy(
        events=spec.events,
        conditions=spec.conditions,
        actions=spec.actions,
        condition_code=tuple(compile_expr(c.body, state_types) for c in spec.conditions),
        action_code=tuple(compile_stmts(a.body, state_types) for a in spec.actions),
        rules=tuple(rules),
        dispatch={k: (plan_batches(spec, before), plan_batches(spec, after)) for k, (before, after) in dispatch.items()},
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
        if current and (
            _local_reads(spec, rule) & written
            or _bindings(spec.events[rule.trigger_id]) != _bindings(spec.events[current[0].trigger_id])
        ):
            batches.append(Batch(current))
            current, written = [], set()
        current.append(rule)
        written |= _local_writes(spec, rule)
    if current:
        batches.append(Batch(current))
    return tuple(batches)


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


def _bindings(event: EventDecl) -> Tuple[Optional[Tuple[str, ...]], Optional[str]]:
    """What `bind_params` binds under `event`: its positional names and its
    return binding."""
    params = event.pattern.params
    return (None if params is None else tuple(p.name for p in params)), event.return_binding


def _forwarded_params(
    spec: PolicySpec,
    global_conds: Tuple[int, ...],
    global_acts: Tuple[int, ...],
    trigger: EventDecl,
) -> Tuple[str, ...]:
    names = set()
    for cid in global_conds:
        names.update(
            e.name for e in walk_exprs(spec.conditions[cid].body) if isinstance(e, VarRef) and e.ns == "event"
        )
    for aid in global_acts:
        for stmt in spec.actions[aid].body:
            names.update(e.name for e in walk_exprs(stmt) if isinstance(e, VarRef) and e.ns == "event")
    declared = {p.name for p in trigger.params}
    return tuple(sorted(names & declared))
