"""Abstract syntax for policy documents.

Structural equality deliberately ignores spans and surface details (side
grouping style, inner tags), which is what makes the print/reparse
round-trip law checkable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..lang.nodes import Expr, Span, Stmt, VarRef, walk_exprs
from ..lang.values import VType


class Side(enum.Enum):
    APPLICATION = "ApplicationSide"
    GLOBAL = "GlobalSide"

    def __str__(self) -> str:
        return self.value


class Phase(enum.Enum):
    BEFORE = "Before"
    AFTER = "After"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Param:
    name: str
    vtype: VType
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CallPattern:
    api_namespace: str
    method: str
    receiver_wildcard: bool
    # None means the `(...)` arity wildcard; otherwise positional typed
    # parameters that the intercepted call's arguments bind to.
    params: Optional[Tuple[Param, ...]]
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class EventDecl:
    name: str
    side: Side
    phase: Phase
    pattern: CallPattern
    header_params: Tuple[Param, ...]
    return_binding: Optional[str]
    group_side: Optional[Side] = field(default=None, compare=False)
    span: Span = field(default=(0, 0), compare=False)

    @property
    def params(self) -> Tuple[Param, ...]:
        positional = self.pattern.params or ()
        return positional + self.header_params

    def param_named(self, name: str) -> Optional[Param]:
        for p in self.params:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class ConditionDecl:
    name: str
    side: Side
    body: Expr
    group_side: Optional[Side] = field(default=None, compare=False)
    inner_side: Optional[Side] = field(default=None, compare=False)
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ActionDecl:
    name: str
    side: Side
    body: Tuple[Stmt, ...]
    group_side: Optional[Side] = field(default=None, compare=False)
    inner_side: Optional[Side] = field(default=None, compare=False)
    span: Span = field(default=(0, 0), compare=False)


def guard_refs(guard: Expr) -> Tuple[VarRef, ...]:
    """The condition references of a guard, left to right."""
    return tuple(e for e in walk_exprs(guard) if isinstance(e, VarRef))


@dataclass(frozen=True)
class RuleDecl:
    name: Optional[str]
    trigger: str
    guard: Expr
    actions: Tuple[str, ...]
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class PolicySpec:
    events: Tuple[EventDecl, ...]
    conditions: Tuple[ConditionDecl, ...]
    actions: Tuple[ActionDecl, ...]
    rules: Tuple[RuleDecl, ...]
