"""AST nodes for condition and action bodies and for rule guards.

Spans and surface-syntax details carry compare=False so that two policies
that differ only in layout compare structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .values import Value, VType

Span = Tuple[int, int]  # (line, column), 1-based

# Variable namespaces. "event" covers parameters of the triggering event;
# "local" and "global" name state variables; "ctx" covers the implicit
# now / app_name / app_id.
NS_EVENT = "event"
NS_LOCAL = "local"
NS_CTX = "ctx"
# "cond" appears only in guards: a guard's leaves are VarRef(NS_COND, name)
# under `!`, `&&` and `||`.
NS_COND = "cond"

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Literal(Expr):
    vtype: VType
    value: Value
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class VarRef(Expr):
    ns: str
    name: str
    # True when an event parameter was written with the explicit `event.`
    # prefix; GlobalSide bodies may only use the explicit form.
    explicit: bool = field(default=False, compare=False)
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!"
    operand: Expr
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: Tuple[Expr, ...]
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    ns: str  # local or global, never event
    name: str
    value: Expr
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BlockStmt(Stmt):
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AppendStmt(Stmt):
    ns: str
    name: str
    value: Expr
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class PruneStmt(Stmt):
    ns: str
    name: str
    horizon: Expr
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SetAttrStmt(Stmt):
    attr: str
    value: Expr
    span: Span = field(default=(0, 0), compare=False)


def walk_exprs(node) -> "list[Expr]":
    """All Expr nodes under an Expr or Stmt, preorder."""
    out: list[Expr] = []

    def go(e: Expr) -> None:
        out.append(e)
        if isinstance(e, Unary):
            go(e.operand)
        elif isinstance(e, Binary):
            go(e.left)
            go(e.right)
        elif isinstance(e, Call):
            for a in e.args:
                go(a)

    if isinstance(node, Expr):
        go(node)
    elif isinstance(node, (Assign, AppendStmt)):
        go(node.value)
    elif isinstance(node, PruneStmt):
        go(node.horizon)
    elif isinstance(node, SetAttrStmt):
        go(node.value)
    return out
