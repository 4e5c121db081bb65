"""Canonical policy source emission.

The canonical form groups declarations by side (runs of consecutive
same-side declarations become one side group), capitalizes block keywords,
writes guard condition references without parentheses, and parenthesizes
expressions only where reparsing would otherwise change the tree shape.
`parse_policy(pretty_print(spec))` is structurally equal to `spec`.
"""

from __future__ import annotations

from typing import List

from ..lang.nodes import (
    Assign,
    AppendStmt,
    Binary,
    BlockStmt,
    CMP_OPS,
    Call,
    Expr,
    Literal,
    NS_COND,
    NS_CTX,
    PruneStmt,
    SetAttrStmt,
    Stmt,
    Unary,
    VarRef,
)
from ..lang.values import VType
from .ast import (
    ActionDecl,
    CallPattern,
    ConditionDecl,
    EventDecl,
    Phase,
    PolicySpec,
    RuleDecl,
    Side,
)
from .lexer import escape_string

_IND = "    "

_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3, "+": 4, "-": 4, "*": 5, "/": 5}
_UNARY_PREC = 6


def pretty_print(spec: PolicySpec) -> str:
    out: List[str] = []
    _decl_block(out, "Events", spec.events, _event_lines)
    _decl_block(out, "Conditions", spec.conditions, _condition_lines)
    _decl_block(out, "Actions", spec.actions, _action_lines)
    out.append("Rules {")
    for rule in spec.rules:
        out.append(_IND + _rule_line(rule))
    out.append("}")
    return "\n".join(out) + "\n"


def _decl_block(out: List[str], keyword: str, decls, render) -> None:
    out.append(f"{keyword} {{")
    for side, run in _side_runs(decls):
        out.append(f"{_IND}{side.value} {{")
        for decl in run:
            out.extend(_IND * 2 + line for line in render(decl))
        out.append(f"{_IND}}}")
    out.append("}")


def _side_runs(decls):
    runs = []
    for decl in decls:
        if runs and runs[-1][0] is decl.side:
            runs[-1][1].append(decl)
        else:
            runs.append((decl.side, [decl]))
    return runs


def _event_lines(decl: EventDecl) -> List[str]:
    header = ", ".join(f"{p.vtype.value} {p.name}" for p in decl.header_params)
    lines = [f"{decl.name}({header}) = {{"]
    prefix = "after " if decl.phase is Phase.AFTER else ""
    lines.append(_IND + prefix + _pattern(decl.pattern))
    closing = "}"
    if decl.return_binding is not None:
        closing += f" uponReturning({decl.return_binding})"
    lines.append(closing)
    return lines


def _pattern(p: CallPattern) -> str:
    sep = " *." if p.receiver_wildcard else "."
    if p.params is None:
        args = "..."
    else:
        args = ", ".join(f"{q.vtype.value} {q.name}" for q in p.params)
    return f"{p.api_namespace}{sep}{p.method}({args})"


def _condition_lines(decl: ConditionDecl) -> List[str]:
    return [f"{decl.name} = {{ {format_expr(decl.body, decl.side)} }}"]


def _action_lines(decl: ActionDecl) -> List[str]:
    if not decl.body:
        return [f"{decl.name} = {{ }}"]
    lines = [f"{decl.name} = {{"]
    for stmt in decl.body:
        lines.append(_IND + format_stmt(stmt, decl.side))
    lines.append("}")
    return lines


def _rule_line(rule: RuleDecl) -> str:
    prefix = f"{rule.name} = " if rule.name else ""
    actions = ", ".join(f"{a}()" for a in rule.actions)
    return f"{prefix}{rule.trigger}() | {format_expr(rule.guard, Side.APPLICATION)} -> {actions};"


# expressions

def format_expr(e: Expr, side: Side) -> str:
    return _expr(e, side, parent_prec=0, right_of=0)


def _expr(e: Expr, side: Side, parent_prec: int, right_of: int) -> str:
    if isinstance(e, Literal):
        return _literal(e)
    if isinstance(e, VarRef):
        if e.ns in (NS_CTX, NS_COND):
            return e.name
        if e.ns == "event":
            return f"event.{e.name}" if side is Side.GLOBAL else e.name
        return f"{e.ns}.{e.name}"
    if isinstance(e, Unary):
        return "!" + _expr(e.operand, side, parent_prec=_UNARY_PREC, right_of=0)
    if isinstance(e, Call):
        args = ", ".join(_expr(a, side, 0, 0) for a in e.args)
        return f"{e.func}({args})"
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        # comparisons are non-associative: a cmp b cmp c never reparses, so
        # any comparison operand of a comparison needs parentheses
        left = _expr(e.left, side, parent_prec=prec, right_of=prec if e.op in CMP_OPS else 0)
        right = _expr(e.right, side, parent_prec=prec, right_of=prec)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec or (right_of and prec == right_of):
            return f"({text})"
        return text
    raise AssertionError(f"unknown expression node {e!r}")


def _literal(e: Literal) -> str:
    if e.vtype is VType.BOOL:
        return "true" if e.value else "false"
    if e.vtype is VType.STRING:
        return escape_string(e.value)
    return str(e.value)


# statements

def format_stmt(s: Stmt, side: Side) -> str:
    if isinstance(s, BlockStmt):
        return "block();"
    if isinstance(s, Assign):
        return f"{s.ns}.{s.name} := {format_expr(s.value, side)};"
    if isinstance(s, AppendStmt):
        return f"append({s.ns}.{s.name}, {format_expr(s.value, side)});"
    if isinstance(s, PruneStmt):
        return f"prune_older({s.ns}.{s.name}, {format_expr(s.horizon, side)});"
    if isinstance(s, SetAttrStmt):
        return f"set_attr({escape_string(s.attr)}, {format_expr(s.value, side)});"
    raise AssertionError(f"unknown statement node {s!r}")
