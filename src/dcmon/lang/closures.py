"""Condition bodies, guards and action bodies compiled to closures.

`compile_policy` compiles each body once. Every node becomes a Python
closure that calls the closures of its children (Feeley & Lapalme, *Using
Closures for Code Generation*, 1987), so a body runs without dispatching
on node types.

The semantics: operands run left then right and arguments left to right;
`&&` and `||` short-circuit and coerce with `bool()`; every fault fires
with its code and detail when the node that raises it runs; an unwritten
variable reads as its typed zero; and each statement that writes logs
exactly one undo record. A subtree that reads no variable is folded to its
value at compile time, unless computing it raises, so that `minutes(0 - 1)`
still faults when the body runs. The tests check every closure against a
tree interpreter of the same language, fault for fault.

`append` and `prune_older` edit a stored ts_list in place. Their undo record
puts back the slice they changed instead of the whole list (see
`eval.rollback`).
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Callable, Dict, Mapping, Tuple

from .eval import APP_SIDE, EvalError, SideFault, duration, trunc_div, writable, write
from .nodes import (
    CMP_OPS,
    NS_COND,
    NS_CTX,
    NS_EVENT,
    NS_LOCAL,
    AppendStmt,
    Assign,
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
    walk_exprs,
)
from .values import INT64_MAX, INT64_MIN, MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, VType

# code(ctx) -> value for an expression, code(ctx) -> blocked for an action
# body, code(truth) -> bool for a guard
Code = Callable[[Any], Any]
StateTypes = Mapping[Tuple[str, str], VType]


def compile_expr(expr: Expr, state_types: StateTypes) -> Code:
    """`code(ctx) -> value`, reading state variables as `state_types` types them."""
    return _logic(expr, lambda e: _term(e, state_types))


def compile_guard(guard: Expr, cond_ids: Dict[str, int]) -> Code:
    """`code(truth) -> bool` over a map from condition id to truth value.
    A guard is `!`, `&&` and `||` over `VarRef(NS_COND, name)` leaves; any
    other node raises AssertionError."""
    return _logic(guard, lambda e: _truth_value(e, cond_ids))


def compile_stmts(stmts: Tuple[Stmt, ...], state_types: StateTypes) -> Code:
    """`code(ctx) -> blocked` for an action body: runs its statements in
    order and returns whether one of them was block()."""
    steps = tuple(_stmt(s, state_types) for s in stmts)
    if len(steps) == 1:
        return steps[0]
    blocks = any(isinstance(s, BlockStmt) for s in stmts)

    def run(ctx):
        for step in steps:
            step(ctx)
        return blocks

    return run


# expressions

def _logic(expr: Expr, leaf: Callable[[Expr], Code]) -> Code:
    """`!`, `&&` and `||`, compiled alike in a body and in a guard; `leaf`
    compiles every other node."""
    if isinstance(expr, Unary) and expr.op == "!":
        operand = _logic(expr.operand, leaf)
        return lambda env: not operand(env)
    if isinstance(expr, Binary) and expr.op in _LOGIC_OPS:
        left, right = _logic(expr.left, leaf), _logic(expr.right, leaf)
        # bool() of an operand that is already a bool changes nothing
        if _yields_bool(expr.left) and _yields_bool(expr.right):
            if expr.op == "&&":
                return lambda env: left(env) and right(env)
            return lambda env: left(env) or right(env)
        if expr.op == "&&":
            return lambda env: bool(left(env)) and bool(right(env))
        return lambda env: bool(left(env)) or bool(right(env))
    return leaf(expr)


_LOGIC_OPS = ("&&", "||")


def _yields_bool(expr: Expr) -> bool:
    """Whether every value of `expr` is a bool: a comparison of two values,
    `!`, `&&`, `||`, or a guard's condition, whose truth value the
    monitors store as a bool."""
    if isinstance(expr, Binary):
        return expr.op in _LOGIC_OPS or expr.op in CMP_OPS
    return isinstance(expr, Unary) or (isinstance(expr, VarRef) and expr.ns == NS_COND)


def _truth_value(expr: Expr, cond_ids: Dict[str, int]) -> Code:
    if isinstance(expr, VarRef) and expr.ns == NS_COND:
        # truth[cid], read without a Python frame
        return operator.itemgetter(cond_ids[expr.name])
    raise AssertionError(f"unknown guard node {expr!r}")


_NOT_CONSTANT = object()


def _constant(code: Code, expr: Expr) -> Any:
    """The value of `code` when `expr` reads no variable and computing it
    raises nothing; otherwise _NOT_CONSTANT, and its fault, if any, fires
    when the body runs."""
    if any(isinstance(e, VarRef) for e in walk_exprs(expr)):
        return _NOT_CONSTANT
    try:
        return code(None)
    except Exception:
        return _NOT_CONSTANT


def _folded(code: Code, expr: Expr) -> Code:
    value = _constant(code, expr)
    return code if value is _NOT_CONSTANT else (lambda ctx: value)


def _term(expr: Expr, state_types: StateTypes) -> Code:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, VarRef):
        return _read(expr, state_types)
    if isinstance(expr, Binary):
        code = _binary(expr, state_types)
    elif isinstance(expr, Call):
        code = _call(expr, state_types)
    else:
        raise AssertionError(f"unknown expression node {expr!r}")
    return _folded(code, expr)


def _unbound(detail: str) -> Code:
    def unbound(ctx):
        raise EvalError("UnboundVariable", detail)

    return unbound


def _read(expr: VarRef, state_types: StateTypes) -> Code:
    ns, name = expr.ns, expr.name
    if ns == NS_CTX:
        if name == "now":
            return operator.attrgetter("now")
        if name not in ("app_name", "app_id"):
            return _unbound(name)
        get = operator.attrgetter(name)

        def read_ctx(ctx):
            value = get(ctx)
            if value is None:
                raise EvalError("UnboundVariable", name)
            return value

        return read_ctx
    if ns == NS_EVENT:
        def read_event(ctx):
            bindings = ctx.event_bindings
            if bindings is None or name not in bindings:
                raise EvalError("UnboundVariable", name)
            return bindings[name]

        return read_event
    # every other namespace reads the global store
    detail = f"{ns}.{name}"
    kind = state_types.get((ns, name))
    if kind is None:
        return _unbound(detail)
    if ns == NS_LOCAL:
        def read_local(ctx):
            store = ctx.local
            if store is None:
                raise EvalError("UnboundVariable", detail)
            return store.get(name, kind)

        return read_local

    def read_global(ctx):
        store = ctx.global_vars
        if store is None:
            raise EvalError("UnboundVariable", detail)
        return store.get(name, kind)

    return read_global


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _binary(expr: Binary, state_types: StateTypes) -> Code:
    op = expr.op
    left = compile_expr(expr.left, state_types)
    right = compile_expr(expr.right, state_types)
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]
        value = _constant(right, expr.right)
        if value is not _NOT_CONSTANT:
            return lambda ctx: compare(left(ctx), value)
        return lambda ctx: compare(left(ctx), right(ctx))
    if op in _ARITHMETIC:
        arithmetic = _ARITHMETIC[op]

        def checked(ctx):
            n = arithmetic(left(ctx), right(ctx))
            if INT64_MIN <= n <= INT64_MAX:
                return n
            raise EvalError("Overflow")

        return checked
    if op == "/":
        return lambda ctx: trunc_div(left(ctx), right(ctx))
    raise AssertionError(f"unknown operator {op}")


def _count_within(ctx, a):
    lst, horizon = a
    duration(horizon)
    # sorted ascending: everything from the first t with now - t <= horizon
    return len(lst) - bisect.bisect_left(lst, ctx.now - horizon)


# Each builtin takes the context and the list of its evaluated arguments,
# as the tests' reference interpreter does, so that a call of another arity
# fails alike.
_BUILTINS: Dict[str, Callable[[Any, list], Any]] = {
    "hour_of_day": lambda ctx, a: (a[0] % MS_PER_DAY) // MS_PER_HOUR,
    "is_pm": lambda ctx, a: (a[0] % MS_PER_DAY) // MS_PER_HOUR >= 12,
    "since_midnight": lambda ctx, a: a[0] % MS_PER_DAY,
    "same_calendar_day": lambda ctx, a: a[0] // MS_PER_DAY == a[1] // MS_PER_DAY,
    "count_within": _count_within,
    "size": lambda ctx, a: len(a[0]),
    "hours": lambda ctx, a: duration(a[0] * MS_PER_HOUR),
    "minutes": lambda ctx, a: duration(a[0] * MS_PER_MINUTE),
    "seconds": lambda ctx, a: duration(a[0] * MS_PER_SECOND),
    "starts_with": lambda ctx, a: a[0].startswith(a[1]),
    "contains": lambda ctx, a: a[1] in a[0],
}


def _call(expr: Call, state_types: StateTypes) -> Code:
    if expr.func not in _BUILTINS:
        raise AssertionError(f"unknown builtin {expr.func}")
    builtin = _BUILTINS[expr.func]
    args = tuple(compile_expr(arg, state_types) for arg in expr.args)
    if len(args) == 1:
        (a,) = args
        return lambda ctx: builtin(ctx, [a(ctx)])
    if len(args) == 2:
        a, b = args
        return lambda ctx: builtin(ctx, [a(ctx), b(ctx)])
    return lambda ctx: builtin(ctx, [arg(ctx) for arg in args])


def _typed(expr: Expr, kind: VType, state_types: StateTypes) -> Code:
    """The value of `expr` with the range check of `kind` applied."""
    code = compile_expr(expr, state_types)
    if kind is VType.DURATION:
        fault = "NegativeDuration"
    elif kind is VType.TIMESTAMP:
        fault = "NegativeTimestamp"
    else:
        return code

    def checked(ctx):
        n = code(ctx)
        if n < 0:
            raise EvalError(fault)
        if n <= INT64_MAX:
            return n
        raise EvalError("Overflow")

    return _folded(checked, expr)


# statements

def _stmt(stmt: Stmt, state_types: StateTypes) -> Code:
    """`code(ctx) -> bool`: whether the statement was block()."""
    if isinstance(stmt, BlockStmt):
        def block(ctx):
            if ctx.side != APP_SIDE:
                raise SideFault("block() outside application side")
            return True

        return block
    if isinstance(stmt, Assign):
        return _assign(stmt, state_types)
    if isinstance(stmt, AppendStmt):
        return _append(stmt, state_types)
    if isinstance(stmt, PruneStmt):
        return _prune(stmt, state_types)
    if isinstance(stmt, SetAttrStmt):
        return _set_attr(stmt, state_types)
    raise AssertionError(f"unknown statement node {stmt!r}")


def _assign(stmt: Assign, state_types: StateTypes) -> Code:
    ns, name = stmt.ns, stmt.name
    kind = state_types[(ns, name)]
    value = _typed(stmt.value, kind, state_types)

    def assign(ctx):
        v = value(ctx)
        store = writable(ctx, ns)
        old = store.kind_of(name)
        ctx.undo.append((store, name, old, None if old is None else store.get(name, old)))
        # a list is copied, so that no two variables share one
        store.set(name, kind, list(v) if isinstance(v, list) else v)
        return False

    return assign


def _append(stmt: AppendStmt, state_types: StateTypes) -> Code:
    ns, name = stmt.ns, stmt.name
    value = _typed(stmt.value, VType.TIMESTAMP, state_types)

    def append(ctx):
        store = writable(ctx, ns)
        ts = value(ctx)
        if store.kind_of(name) is VType.TS_LIST:
            lst = store.get(name, VType.TS_LIST)
            i = bisect.bisect_right(lst, ts)
            lst.insert(i, ts)
            ctx.undo.append((lst, i, i + 1, ()))
        else:
            lst = list(store.get(name, VType.TS_LIST))
            bisect.insort(lst, ts)
            write(ctx, store, name, VType.TS_LIST, lst)
        return False

    return append


def _prune(stmt: PruneStmt, state_types: StateTypes) -> Code:
    ns, name = stmt.ns, stmt.name
    horizon = _typed(stmt.horizon, VType.DURATION, state_types)

    def prune(ctx):
        store = writable(ctx, ns)
        cutoff = ctx.now - horizon(ctx)
        if store.kind_of(name) is VType.TS_LIST:
            lst = store.get(name, VType.TS_LIST)
            cut = bisect.bisect_left(lst, cutoff)
            dropped = lst[:cut]
            del lst[:cut]
            ctx.undo.append((lst, 0, 0, dropped))
        else:
            kept = [t for t in store.get(name, VType.TS_LIST) if t >= cutoff]
            write(ctx, store, name, VType.TS_LIST, kept)
        return False

    return prune


def _set_attr(stmt: SetAttrStmt, state_types: StateTypes) -> Code:
    attr = stmt.attr
    kind = state_types.get(("attr", attr), VType.BOOL)
    value = _typed(stmt.value, kind, state_types)

    def set_attr(ctx):
        v = value(ctx)
        if ctx.attrs is None:
            raise SideFault("no attribute store in this context")
        write(ctx, ctx.attrs, attr, kind, v)
        return False

    return set_attr
