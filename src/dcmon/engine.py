"""Compilation of validated policies into per-event rule tables.

Each rule is classified by locality: a rule whose guard conditions and
actions are all ApplicationSide can be decided entirely inside the app's
own monitor; anything touching GlobalSide state needs the central monitor.

The rules of one dispatch key are split into batches at compile time, and
every rule runs through its batch. The NeedsGlobal rules of a batch share
one channel round trip per occurrence, and a batch without any sends
nothing; a batch ends only where running its rules in two phases (every
app-side condition first, every outcome afterwards) could change what a
rule sees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .dsl.analysis import infer_policy_state, StateTypes
from .dsl.ast import (
    ActionDecl,
    ConditionDecl,
    EventDecl,
    Guard,
    GuardAnd,
    GuardNot,
    GuardOr,
    GuardRef,
    Phase,
    PolicySpec,
    Side,
    guard_refs,
)
from .lang.nodes import AppendStmt, Assign, BlockStmt, PruneStmt, VarRef, walk_exprs


class Locality(enum.Enum):
    LOCAL_ONLY = "LocalOnly"
    NEEDS_GLOBAL = "NeedsGlobal"

    def __str__(self) -> str:
        return self.value


class MissingTruthValue(Exception):
    pass


# Guard formula over dense condition ids, as nested tuples:
#   ("ref", cid) | ("not", g) | ("and", g, g) | ("or", g, g)
GuardTree = tuple


def evaluate_guard(guard: GuardTree, truth: Dict[int, bool]) -> bool:
    tag = guard[0]
    if tag == "ref":
        cid = guard[1]
        if cid not in truth:
            raise MissingTruthValue(f"no truth value for condition {cid}")
        return truth[cid]
    if tag == "not":
        return not evaluate_guard(guard[1], truth)
    if tag == "and":
        return evaluate_guard(guard[1], truth) and evaluate_guard(guard[2], truth)
    if tag == "or":
        return evaluate_guard(guard[1], truth) or evaluate_guard(guard[2], truth)
    raise AssertionError(f"unknown guard node {guard!r}")


@dataclass(frozen=True)
class CompiledRule:
    rule_id: int
    name: str
    trigger_id: int
    guard: GuardTree
    action_ids: Tuple[int, ...]
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
    """Consecutive rules of one dispatch key. The local monitor evaluates
    all their app-side conditions first, sends one request for their
    NeedsGlobal rules, then applies each rule's outcome in order."""

    __slots__ = ("rules", "rule_ids")

    def __init__(self, rules: Sequence[CompiledRule]):
        self.rules = tuple(rules)
        # the request's rule ids when every NeedsGlobal rule is sent; empty
        # for a batch of LocalOnly rules, which sends nothing
        self.rule_ids = tuple(r.rule_id for r in self.rules if r.locality is Locality.NEEDS_GLOBAL)


class DispatchEntry(tuple):
    """The rules of one dispatch key, in declaration order. `batches` is
    the key's batch plan, which covers every rule."""

    batches: Tuple[Batch, ...]

    def __new__(cls, rules: Sequence[CompiledRule], batches: Tuple[Batch, ...]):
        entry = super().__new__(cls, rules)
        entry.batches = batches
        return entry


@dataclass(frozen=True, eq=False)
class CompiledPolicy:
    events: Tuple[EventDecl, ...]
    conditions: Tuple[ConditionDecl, ...]
    actions: Tuple[ActionDecl, ...]
    rules: Tuple[CompiledRule, ...]
    dispatch: Dict[Tuple[str, str, Phase], DispatchEntry]
    state_types: StateTypes
    source: PolicySpec

    def rule_by_id(self, rule_id: int) -> Optional[CompiledRule]:
        if 0 <= rule_id < len(self.rules):
            return self.rules[rule_id]
        return None

    def event_of(self, rule: CompiledRule) -> EventDecl:
        return self.events[rule.trigger_id]


def compile_policy(spec: PolicySpec) -> CompiledPolicy:
    """Build dispatch tables for a policy that already passed validation."""
    event_ids = {e.name: i for i, e in enumerate(spec.events)}
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    action_ids = {a.name: i for i, a in enumerate(spec.actions)}
    state_types, issues = infer_policy_state(spec)
    if issues:
        raise ValueError("compile_policy called on an unvalidated policy")

    rules: List[CompiledRule] = []
    for idx, rule in enumerate(spec.rules):
        trigger = spec.events[event_ids[rule.trigger]]
        guard_tree = _lower_guard(rule.guard, cond_ids)
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
                guard=guard_tree,
                action_ids=acts,
                locality=Locality.LOCAL_ONLY if local_only else Locality.NEEDS_GLOBAL,
                app_condition_ids=app_conds,
                global_condition_ids=global_conds,
                app_action_ids=app_acts,
                global_action_ids=global_acts,
                forwarded_params=forwarded,
                blocks=blocks,
            )
        )

    dispatch: Dict[Tuple[str, str, Phase], List[CompiledRule]] = {}
    for event in spec.events:
        key = (event.pattern.api_namespace, event.pattern.method, event.phase)
        dispatch.setdefault(key, [])
    for rule in rules:
        event = spec.events[rule.trigger_id]
        key = (event.pattern.api_namespace, event.pattern.method, event.phase)
        dispatch[key].append(rule)

    return CompiledPolicy(
        events=spec.events,
        conditions=spec.conditions,
        actions=spec.actions,
        rules=tuple(rules),
        dispatch={k: DispatchEntry(v, plan_batches(spec, v)) for k, v in dispatch.items()},
        state_types=state_types,
        source=spec,
    )


def rules_for(cp: CompiledPolicy, namespace: str, method: str, phase: Phase) -> Tuple[CompiledRule, ...]:
    """The key's DispatchEntry, or an empty tuple when no event intercepts it."""
    return cp.dispatch.get((namespace, method, phase), ())


def plan_batches(spec: PolicySpec, rules: Sequence[CompiledRule]) -> Tuple[Batch, ...]:
    """Split one key's rules, in declaration order, into batches.

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


def _lower_guard(g: Guard, cond_ids: Dict[str, int]) -> GuardTree:
    if isinstance(g, GuardRef):
        return ("ref", cond_ids[g.name])
    if isinstance(g, GuardNot):
        return ("not", _lower_guard(g.operand, cond_ids))
    if isinstance(g, GuardAnd):
        return ("and", _lower_guard(g.left, cond_ids), _lower_guard(g.right, cond_ids))
    if isinstance(g, GuardOr):
        return ("or", _lower_guard(g.left, cond_ids), _lower_guard(g.right, cond_ids))
    raise AssertionError(f"unknown guard node {g!r}")


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
