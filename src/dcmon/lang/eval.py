"""Evaluation of typed condition expressions and action statements.

Expressions are pure. Statements write the stores attached to the context
in place, and record in the context's undo log what each write overwrote,
so that a caller can roll a faulting rule back to the state it started
from.

The monitors run the closures that `closures.py` compiles from these
trees; this tree interpreter is the reference that they are tested
against. The checked helpers and `rollback` serve both.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .nodes import (
    Assign,
    AppendStmt,
    Binary,
    BlockStmt,
    Call,
    Expr,
    Literal,
    PruneStmt,
    SetAttrStmt,
    Stmt,
    Unary,
    VarRef,
)
from .state import VarStore
from .values import (
    INT64_MAX,
    INT64_MIN,
    MS_PER_DAY,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    MS_PER_SECOND,
    Value,
    VType,
    copy_value,
)

APP_SIDE = "app"
GLOBAL_SIDE = "global"


class EvalError(Exception):
    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


class SideFault(Exception):
    """Statement executed on the wrong side; unreachable after validation."""


# Either (store, name, overwritten kind or None if the name was absent,
# overwritten value), or, for a compiled append or prune that edited a
# stored ts_list in place, (list, start, stop, items): lst[start:stop] = items
# undoes the edit.
UndoEntry = Union[Tuple[VarStore, str, Optional[VType], Value], Tuple[list, int, int, Sequence[int]]]


@dataclass(slots=True)
class EvalContext:
    side: str  # APP_SIDE or GLOBAL_SIDE
    now: int
    # read by this interpreter; compiled code fixes the kinds when compiled
    state_types: Dict[Tuple[str, str], VType]
    app_id: Optional[str] = None
    app_name: Optional[str] = None
    event_bindings: Optional[Dict[str, Value]] = None
    local: Optional[VarStore] = None
    global_vars: Optional[VarStore] = None
    attrs: Optional[VarStore] = None
    # every write since the caller last cleared the log or rolled it back
    undo: List[UndoEntry] = field(default_factory=list)


def _checked_int(n: int) -> int:
    if not (INT64_MIN <= n <= INT64_MAX):
        raise EvalError("Overflow")
    return n


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("DivisionByZero")
    q = abs(a) // abs(b)
    # INT64_MIN / -1 is the one quotient out of range
    return _checked_int(q if (a >= 0) == (b >= 0) else -q)


def _duration(n: int) -> int:
    if n < 0:
        raise EvalError("NegativeDuration")
    return _checked_int(n)


def _timestamp(n: int) -> int:
    if n < 0:
        raise EvalError("NegativeTimestamp")
    return _checked_int(n)


def eval_expr(expr: Expr, ctx: EvalContext) -> Value:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, VarRef):
        return _read_var(expr, ctx)
    if isinstance(expr, Unary):
        return not eval_expr(expr.operand, ctx)
    if isinstance(expr, Binary):
        return _eval_binary(expr, ctx)
    if isinstance(expr, Call):
        return _eval_call(expr, ctx)
    raise AssertionError(f"unknown expression node {expr!r}")


def _read_var(expr: VarRef, ctx: EvalContext) -> Value:
    ns, name = expr.ns, expr.name
    if ns == "ctx":
        if name == "now":
            return ctx.now
        value = ctx.app_name if name == "app_name" else ctx.app_id if name == "app_id" else None
        if value is None:
            raise EvalError("UnboundVariable", name)
        return value
    if ns == "event":
        if ctx.event_bindings is None or name not in ctx.event_bindings:
            raise EvalError("UnboundVariable", name)
        return ctx.event_bindings[name]
    store = ctx.local if ns == "local" else ctx.global_vars
    if store is None:
        raise EvalError("UnboundVariable", f"{ns}.{name}")
    kind = ctx.state_types.get((ns, name))
    if kind is None:
        raise EvalError("UnboundVariable", f"{ns}.{name}")
    return store.get(name, kind)


def _eval_binary(expr: Binary, ctx: EvalContext) -> Value:
    op = expr.op
    if op == "&&":
        return bool(eval_expr(expr.left, ctx)) and bool(eval_expr(expr.right, ctx))
    if op == "||":
        return bool(eval_expr(expr.left, ctx)) or bool(eval_expr(expr.right, ctx))
    left = eval_expr(expr.left, ctx)
    right = eval_expr(expr.right, ctx)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    # Arithmetic: result-kind checks depend on the statically known shape.
    if op == "+":
        return _checked_int(left + right)
    if op == "-":
        return _checked_int(left - right)
    if op == "*":
        return _checked_int(left * right)
    if op == "/":
        return _trunc_div(left, right)
    raise AssertionError(f"unknown operator {op}")


def _eval_call(expr: Call, ctx: EvalContext) -> Value:
    f = expr.func
    a = [eval_expr(arg, ctx) for arg in expr.args]
    if f == "hour_of_day":
        return (a[0] % MS_PER_DAY) // MS_PER_HOUR
    if f == "is_pm":
        return (a[0] % MS_PER_DAY) // MS_PER_HOUR >= 12
    if f == "since_midnight":
        return a[0] % MS_PER_DAY
    if f == "same_calendar_day":
        return a[0] // MS_PER_DAY == a[1] // MS_PER_DAY
    if f == "count_within":
        lst, horizon = a
        _duration(horizon)
        # sorted ascending: everything from the first t with now - t <= horizon
        return len(lst) - bisect.bisect_left(lst, ctx.now - horizon)
    if f == "size":
        return len(a[0])
    if f == "hours":
        return _duration(a[0] * MS_PER_HOUR)
    if f == "minutes":
        return _duration(a[0] * MS_PER_MINUTE)
    if f == "seconds":
        return _duration(a[0] * MS_PER_SECOND)
    if f == "starts_with":
        return a[0].startswith(a[1])
    if f == "contains":
        return a[1] in a[0]
    raise AssertionError(f"unknown builtin {f}")


def eval_typed(expr: Expr, ctx: EvalContext, kind: VType) -> Value:
    """Evaluate and apply the result-kind range checks for `kind`."""
    v = eval_expr(expr, ctx)
    if kind is VType.DURATION:
        return _duration(v)
    if kind is VType.TIMESTAMP:
        return _timestamp(v)
    return v


def exec_stmt(stmt: Stmt, ctx: EvalContext) -> bool:
    """Run one statement, writing the context's stores in place and logging
    each overwritten entry in `ctx.undo`. Returns whether it was block()."""
    if isinstance(stmt, BlockStmt):
        if ctx.side != APP_SIDE:
            raise SideFault("block() outside application side")
        return True
    if isinstance(stmt, Assign):
        kind = ctx.state_types[(stmt.ns, stmt.name)]
        value = eval_typed(stmt.value, ctx, kind)
        _write(ctx, _writable(ctx, stmt.ns), stmt.name, kind, copy_value(value))
    elif isinstance(stmt, AppendStmt):
        store = _writable(ctx, stmt.ns)
        ts = eval_typed(stmt.value, ctx, VType.TIMESTAMP)
        lst = list(store.get(stmt.name, VType.TS_LIST))
        bisect.insort(lst, ts)
        _write(ctx, store, stmt.name, VType.TS_LIST, lst)
    elif isinstance(stmt, PruneStmt):
        store = _writable(ctx, stmt.ns)
        horizon = eval_typed(stmt.horizon, ctx, VType.DURATION)
        cutoff = ctx.now - horizon
        kept = [t for t in store.get(stmt.name, VType.TS_LIST) if t >= cutoff]
        _write(ctx, store, stmt.name, VType.TS_LIST, kept)
    elif isinstance(stmt, SetAttrStmt):
        kind = ctx.state_types.get(("attr", stmt.attr), VType.BOOL)
        value = eval_typed(stmt.value, ctx, kind)
        if ctx.attrs is None:
            raise SideFault("no attribute store in this context")
        _write(ctx, ctx.attrs, stmt.attr, kind, value)
    else:
        raise AssertionError(f"unknown statement node {stmt!r}")
    return False


def exec_stmts(stmts, ctx: EvalContext) -> bool:
    """Run statements in order; returns whether any of them was block()."""
    blocked = False
    for stmt in stmts:
        if exec_stmt(stmt, ctx):
            blocked = True
    return blocked


def _writable(ctx: EvalContext, ns: str) -> VarStore:
    store = ctx.local if ns == "local" else ctx.global_vars
    if store is None:
        raise SideFault(f"no writable {ns} store in this context")
    return store


def _write(ctx: EvalContext, store: VarStore, name: str, kind: VType, value: Value) -> None:
    old_kind = store.kind_of(name)
    ctx.undo.append((store, name, old_kind, None if old_kind is None else store.get(name, old_kind)))
    store.set(name, kind, value)


def rollback(undo: List[UndoEntry]) -> None:
    """Undo the logged writes, newest first, and empty the log. A name the
    writes created is removed again."""
    while undo:
        entry = undo.pop()
        if type(entry[0]) is list:
            lst, start, stop, items = entry
            lst[start:stop] = items
            continue
        store, name, kind, value = entry
        if kind is None:
            store.discard(name)
        else:
            store.set(name, kind, value)
