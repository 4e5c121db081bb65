"""Whole-policy validation: name resolution, the catalog, side scoping,
typing.

Collects every error rather than stopping at the first, in a deterministic
order (category duplicates, event shape and its fit to the device's API
catalog, side tags, kind inference with the device attribute each set_attr
names, body checks in declaration order, then rule checks in declaration
order). A policy that passes fits the catalog and the device, so nothing
later checks it again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..catalog import pattern_mismatches
from ..lang.check import TypeMismatch, UnboundVariable, type_check, check_stmt
from ..lang.nodes import Assign, AppendStmt, BlockStmt, PruneStmt, VarRef, walk_exprs
from ..lang.values import VType
from .analysis import StateTypes, event_param_env, infer_policy_state, rule_uses
from .ast import (
    ActionDecl,
    ConditionDecl,
    EventDecl,
    Phase,
    PolicySpec,
    Side,
    guard_refs,
)
from .errors import ValidationError

_VE = ValidationError


def validate_policy(spec: PolicySpec):
    """Returns the compiled policy, or the complete error list."""
    errors: List[ValidationError] = []
    _check_duplicates(spec, errors)
    for event in spec.events:
        _check_event(event, errors)
    for decl in (*spec.conditions, *spec.actions):
        if decl.group_side is not None and decl.inner_side is not None and decl.group_side is not decl.inner_side:
            errors.append(
                _VE("SideViolation", f"inner {decl.inner_side} tag disagrees with enclosing {decl.group_side} group", decl.span)
            )

    cond_uses, act_uses = rule_uses(spec)
    state_types, issues = infer_policy_state(spec, act_uses)
    errors.extend(_VE(issue.code, issue.message, issue.span) for issue in issues)

    for cond in spec.conditions:
        _check_body(cond, cond_uses[cond.name], state_types, errors)
    for action in spec.actions:
        _check_body(action, act_uses[action.name], state_types, errors)

    _check_rules(spec, errors)
    if errors:
        return errors

    from ..engine import compile_policy

    return compile_policy(spec, state_types)


def _check_duplicates(spec: PolicySpec, errors: List[ValidationError]) -> None:
    for category, decls in (
        ("event", spec.events),
        ("condition", spec.conditions),
        ("action", spec.actions),
        ("rule", spec.rules),
    ):
        seen = set()
        for d in decls:
            if d.name in seen:
                errors.append(_VE("DuplicateName", f"duplicate {category} name {d.name!r}", d.span))
            elif d.name is not None:  # rules may be unnamed
                seen.add(d.name)


def _check_event(event: EventDecl, errors: List[ValidationError]) -> None:
    seen = set()
    for p in event.params:
        if p.name in seen:
            errors.append(
                _VE("DuplicateName", f"duplicate parameter {p.name!r} in event {event.name!r}", p.span)
            )
        seen.add(p.name)
    rb = event.return_binding
    binding = event.param_named(rb) if rb is not None else None
    positional = event.pattern.params or ()
    if rb is not None:
        if event.phase is Phase.BEFORE:
            errors.append(
                _VE(
                    "ReturnBindingOnBeforeEvent",
                    f"uponReturning({rb}) on before-phase event {event.name!r}",
                    event.span,
                )
            )
        if binding is None:
            errors.append(
                _VE("UnresolvedName", f"uponReturning({rb}) names an undeclared parameter", event.span)
            )
        elif any(p.name == rb for p in positional):
            errors.append(
                _VE(
                    "ReturnBindingCollision",
                    f"parameter {rb!r} is bound both positionally and by uponReturning",
                    event.span,
                )
            )
    for p in event.header_params:
        if p.name != rb:
            errors.append(
                _VE(
                    "UnboundParam",
                    f"header parameter {p.name!r} of event {event.name!r} is never bound; "
                    "only the uponReturning parameter belongs in the header",
                    p.span,
                )
            )
    pattern = event.pattern
    declared = None if pattern.params is None else tuple(p.vtype for p in pattern.params)
    for mismatch in pattern_mismatches(
        pattern.api_namespace, pattern.method, declared, binding.vtype if binding is not None else None
    ):
        errors.append(_VE("CatalogMismatch", f"event {event.name!r} {mismatch}", event.span))


def _side_scan(decl: Union[ConditionDecl, ActionDecl], errors: List[ValidationError]) -> bool:
    """Appends side-scoping violations; returns True when any were found."""
    found = len(errors)
    side = decl.side
    stmts = decl.body if isinstance(decl, ActionDecl) else ()
    exprs = []
    if isinstance(decl, ConditionDecl):
        exprs.extend(walk_exprs(decl.body))
    else:
        for stmt in stmts:
            if isinstance(stmt, (Assign, AppendStmt, PruneStmt)):
                wrong = stmt.ns == "global" if side is Side.APPLICATION else stmt.ns == "local"
                if wrong:
                    errors.append(
                        _VE("SideViolation", f"{side} action {decl.name!r} writes {stmt.ns} state", stmt.span)
                    )
            if isinstance(stmt, BlockStmt) and side is Side.GLOBAL:
                errors.append(
                    _VE("SideViolation", f"block() in GlobalSide action {decl.name!r}", stmt.span)
                )
            exprs.extend(walk_exprs(stmt))
    for e in exprs:
        if not isinstance(e, VarRef):
            continue
        if side is Side.APPLICATION:
            if e.ns == "global":
                errors.append(
                    _VE("SideViolation", f"ApplicationSide body of {decl.name!r} reads global.{e.name}", e.span)
                )
        else:
            if e.ns == "local":
                errors.append(
                    _VE("SideViolation", f"GlobalSide body of {decl.name!r} reads local.{e.name}", e.span)
                )
            elif e.ns == "event" and not e.explicit:
                errors.append(
                    _VE(
                        "SideViolation",
                        f"GlobalSide body of {decl.name!r} reads event parameter {e.name!r}; "
                        f"forward it explicitly as event.{e.name}",
                        e.span,
                    )
                )
            elif e.ns == "ctx" and e.name in ("app_name", "app_id"):
                errors.append(
                    _VE("SideViolation", f"GlobalSide body of {decl.name!r} reads {e.name}", e.span)
                )
    return len(errors) > found


def _check_body(
    decl: Union[ConditionDecl, ActionDecl],
    triggers: List[Optional[EventDecl]],
    state_types: StateTypes,
    errors: List[ValidationError],
) -> None:
    if _side_scan(decl, errors):
        return
    for trigger in triggers:
        env = event_param_env(trigger, decl.side)
        for key, vt in state_types.items():
            if key[0] in ("local", "global"):
                env[key] = vt
        where = f" (triggered by {trigger.name})" if trigger is not None else ""
        try:
            if isinstance(decl, ConditionDecl):
                t = type_check(decl.body, env)
                if t is not VType.BOOL:
                    errors.append(
                        _VE("TypeError", f"condition {decl.name!r} must be bool, found {t}{where}", decl.span)
                    )
            else:
                for stmt in decl.body:
                    check_stmt(stmt, env)
        except UnboundVariable as ex:
            label = ex.name if ex.ns in ("event", "ctx") else f"{ex.ns}.{ex.name}"
            errors.append(
                _VE("UnresolvedName", f"unbound name {label!r} in {decl.name!r}{where}", ex.span)
            )
        except TypeMismatch as ex:
            errors.append(_VE("TypeError", f"{ex.message} in {decl.name!r}{where}", ex.span))


def _check_rules(spec: PolicySpec, errors: List[ValidationError]) -> None:
    events = {e.name: e for e in spec.events}
    conditions = {c.name for c in spec.conditions}
    actions: Dict[str, ActionDecl] = {a.name: a for a in spec.actions}
    for idx, rule in enumerate(spec.rules):
        label = rule.name or f"rule#{idx}"
        trigger = events.get(rule.trigger)
        if trigger is None:
            errors.append(_VE("UnresolvedName", f"unknown event {rule.trigger!r} in {label}", rule.span))
        for ref in guard_refs(rule.guard):
            if ref.name not in conditions:
                errors.append(_VE("UnresolvedName", f"unknown condition {ref.name!r} in {label}", ref.span))
        for name in rule.actions:
            action = actions.get(name)
            if action is None:
                errors.append(_VE("UnresolvedName", f"unknown action {name!r} in {label}", rule.span))
            elif (
                trigger is not None
                and trigger.phase is Phase.AFTER
                and any(isinstance(s, BlockStmt) for s in action.body)
            ):
                errors.append(
                    _VE(
                        "BlockOnAfterEvent",
                        f"{label} runs blocking action {name!r} on after-phase event {trigger.name!r}",
                        rule.span,
                    )
                )
