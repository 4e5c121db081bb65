"""Name resolution and kind inference shared by the validator and compiler."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..catalog import DEVICE_ATTRS
from ..lang.check import InferenceIssue, LangError, TypeEnv, infer_state_types, type_check
from ..lang.nodes import Assign, AppendStmt, PruneStmt, SetAttrStmt
from ..lang.values import VType
from .ast import EventDecl, PolicySpec, Side, guard_refs

StateTypes = Dict[Tuple[str, str], VType]
Uses = Dict[str, List[Optional[EventDecl]]]


def event_param_env(trigger: Optional[EventDecl], side: Side) -> TypeEnv:
    """Variables visible to a body of `side` when fired by `trigger`.

    State variable kinds are layered on top by the caller. ApplicationSide
    bodies see the clock, the app identity and the trigger's parameters;
    GlobalSide bodies see the clock plus explicitly forwarded parameters.
    """
    env: TypeEnv = {("ctx", "now"): VType.TIMESTAMP}
    if side is Side.APPLICATION:
        env[("ctx", "app_name")] = VType.STRING
        env[("ctx", "app_id")] = VType.STRING
    if trigger is not None:
        for p in trigger.params:
            env[("event", p.name)] = p.vtype
    return env


def rule_uses(spec: PolicySpec) -> Tuple[Uses, Uses]:
    """Condition and action name -> the declared events that trigger the
    rules using it, each once, in rule order; [None] when there are none.

    A rule whose trigger names no event is skipped: it is reported as an
    unknown event, and typing its bodies under no event would add errors
    that follow from that one."""
    events = {e.name: e for e in spec.events}
    cond_uses: Uses = {c.name: [] for c in spec.conditions}
    act_uses: Uses = {a.name: [] for a in spec.actions}
    for rule in spec.rules:
        trigger = events.get(rule.trigger)
        if trigger is None:
            continue
        for uses, names in ((cond_uses, [ref.name for ref in guard_refs(rule.guard)]), (act_uses, rule.actions)):
            for name in names:
                if name in uses and trigger not in uses[name]:
                    uses[name].append(trigger)
    for triggers in (*cond_uses.values(), *act_uses.values()):
        if not triggers:
            triggers.append(None)
    return cond_uses, act_uses


def infer_policy_state(spec: PolicySpec, act_uses: Uses) -> Tuple[StateTypes, List[InferenceIssue]]:
    """Kinds of every local/global variable and device attribute the policy
    writes, given `rule_uses`' action map. Attribute kinds are keyed under
    the "attr" pseudo-namespace, and start from the device's own table."""
    action_envs = [(a, [event_param_env(t, a.side) for t in act_uses[a.name]]) for a in spec.actions]
    types, issues = infer_state_types(
        [
            (stmt, envs)
            for action, envs in action_envs
            for stmt in action.body
            if isinstance(stmt, (Assign, AppendStmt, PruneStmt))
        ]
    )

    types.update((("attr", name), kind) for name, kind in DEVICE_ATTRS.items())
    for action, envs in action_envs:
        for stmt in action.body:
            if not isinstance(stmt, SetAttrStmt):
                continue
            kind: Optional[VType] = None
            for env in envs:
                merged = dict(env)
                merged.update(types)
                try:
                    kind = type_check(stmt.value, merged)
                    break
                except LangError:
                    continue
            if kind is None:
                continue  # surfaced later as a per-use typing error
            key = ("attr", stmt.attr)
            prior = types.get(key)
            if prior is not None and prior is not kind:
                issues.append(
                    InferenceIssue(stmt.span, f"attribute {stmt.attr} is {prior}, written as {kind}")
                )
            else:
                types[key] = kind
    return types, issues
