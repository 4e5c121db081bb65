"""The tree interpreter of the policy language: the tests' reference.

`dcmon` runs condition and action bodies only as the Python functions that
`dcmon.lang.codegen` generates. This interpreter walks the same trees
directly, and defines the values and faults that the generated code must
give: the tests check that code against this interpreter, value for value
and fault for fault, down to the exception's text. State kinds are an
explicit argument, `state_types`, the map from `(namespace, name)` to kind
that validation infers; the generated code fixes them when it is compiled.
The interpreter also checks what the generated code leaves to validation: a
store the context lacks, `block()` off the app side, and an unbound name or
state variable each raise here, while the generated code assumes them away.

Expressions are pure. Statements write the stores attached to the context
in place and log what each write overwrote in `ctx.undo`, as the generated
code does, except that `append` and `prune_older` write a new list.
"""

from __future__ import annotations

import bisect

from dcmon.lang.eval import ABSENT, APP_SIDE, EvalContext, EvalError, _checked_int, duration
from dcmon.lang.codegen import StateTypes
from dcmon.lang.state import VarStore
from dcmon.lang.nodes import (
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
from dcmon.lang.values import (
    MS_PER_DAY,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    MS_PER_SECOND,
    Value,
    VType,
    copy_value,
)


class SideFault(Exception):
    """A statement ran in a context that lacks what its side provides."""


def writable(ctx: EvalContext, ns: str) -> VarStore:
    store = ctx.local if ns == "local" else ctx.global_vars
    if store is None:
        raise SideFault(f"no writable {ns} store in this context")
    return store


def write(ctx: EvalContext, store: VarStore, name: str, value: Value) -> None:
    ctx.undo.append((store._vals, name, store._vals.get(name, ABSENT)))
    store.set(name, value)


def trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("DivisionByZero")
    q = abs(a) // abs(b)
    # INT64_MIN / -1 is the one quotient out of range
    return _checked_int(q if (a >= 0) == (b >= 0) else -q)


def _timestamp(n: int) -> int:
    if n < 0:
        raise EvalError("NegativeTimestamp")
    return _checked_int(n)


def eval_expr(expr: Expr, ctx: EvalContext, state_types: StateTypes) -> Value:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, VarRef):
        return _read_var(expr, ctx, state_types)
    if isinstance(expr, Unary):
        return not eval_expr(expr.operand, ctx, state_types)
    if isinstance(expr, Binary):
        return _eval_binary(expr, ctx, state_types)
    if isinstance(expr, Call):
        return _eval_call(expr, ctx, state_types)
    raise AssertionError(f"unknown expression node {expr!r}")


def _read_var(expr: VarRef, ctx: EvalContext, state_types: StateTypes) -> Value:
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
    kind = state_types.get((ns, name))
    if kind is None:
        raise EvalError("UnboundVariable", f"{ns}.{name}")
    return store.get(name, kind)


def _eval_binary(expr: Binary, ctx: EvalContext, state_types: StateTypes) -> Value:
    op = expr.op
    if op == "&&":
        return bool(eval_expr(expr.left, ctx, state_types)) and bool(eval_expr(expr.right, ctx, state_types))
    if op == "||":
        return bool(eval_expr(expr.left, ctx, state_types)) or bool(eval_expr(expr.right, ctx, state_types))
    left = eval_expr(expr.left, ctx, state_types)
    right = eval_expr(expr.right, ctx, state_types)
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
        return trunc_div(left, right)
    raise AssertionError(f"unknown operator {op}")


def _eval_call(expr: Call, ctx: EvalContext, state_types: StateTypes) -> Value:
    f = expr.func
    a = [eval_expr(arg, ctx, state_types) for arg in expr.args]
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
        duration(horizon)
        # sorted ascending: everything from the first t with now - t <= horizon
        return len(lst) - bisect.bisect_left(lst, ctx.now - horizon)
    if f == "size":
        return len(a[0])
    if f == "hours":
        return duration(a[0] * MS_PER_HOUR)
    if f == "minutes":
        return duration(a[0] * MS_PER_MINUTE)
    if f == "seconds":
        return duration(a[0] * MS_PER_SECOND)
    if f == "starts_with":
        return a[0].startswith(a[1])
    if f == "contains":
        return a[1] in a[0]
    raise AssertionError(f"unknown builtin {f}")


def eval_typed(expr: Expr, ctx: EvalContext, state_types: StateTypes, kind: VType) -> Value:
    """Evaluate and apply the result-kind range checks for `kind`."""
    v = eval_expr(expr, ctx, state_types)
    if kind is VType.DURATION:
        return duration(v)
    if kind is VType.TIMESTAMP:
        return _timestamp(v)
    return v


def exec_stmt(stmt: Stmt, ctx: EvalContext, state_types: StateTypes) -> bool:
    """Run one statement, writing the context's stores in place and logging
    each overwritten entry in `ctx.undo`. Returns whether it was block()."""
    if isinstance(stmt, BlockStmt):
        if ctx.side != APP_SIDE:
            raise SideFault("block() outside application side")
        return True
    if isinstance(stmt, Assign):
        kind = state_types[(stmt.ns, stmt.name)]
        value = eval_typed(stmt.value, ctx, state_types, kind)
        write(ctx, writable(ctx, stmt.ns), stmt.name, copy_value(value))
    elif isinstance(stmt, AppendStmt):
        store = writable(ctx, stmt.ns)
        ts = eval_typed(stmt.value, ctx, state_types, VType.TIMESTAMP)
        lst = list(store.get(stmt.name, VType.TS_LIST))
        bisect.insort(lst, ts)
        write(ctx, store, stmt.name, lst)
    elif isinstance(stmt, PruneStmt):
        store = writable(ctx, stmt.ns)
        horizon = eval_typed(stmt.horizon, ctx, state_types, VType.DURATION)
        cutoff = ctx.now - horizon
        kept = [t for t in store.get(stmt.name, VType.TS_LIST) if t >= cutoff]
        write(ctx, store, stmt.name, kept)
    elif isinstance(stmt, SetAttrStmt):
        value = eval_typed(stmt.value, ctx, state_types, state_types[("attr", stmt.attr)])
        if ctx.attrs is None:
            raise SideFault("no attribute store in this context")
        write(ctx, ctx.attrs, stmt.attr, value)
    else:
        raise AssertionError(f"unknown statement node {stmt!r}")
    return False


def exec_stmts(stmts, ctx: EvalContext, state_types: StateTypes) -> bool:
    """Run statements in order; returns whether any of them was block()."""
    blocked = False
    for stmt in stmts:
        if exec_stmt(stmt, ctx, state_types):
            blocked = True
    return blocked
