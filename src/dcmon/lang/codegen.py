"""Condition bodies, guards and action bodies compiled to Python source.

`compile_policy` writes each body of a policy as one Python function, puts
all of a policy's functions in one `Module` and compiles that module with
one `compile()` call; functions with identical source share one. Beside
the bodies and guards, the module holds the functions that `engine.py`
writes for each batch with `Module.add`, their guards inlined by
`Module.guard_source` over the truth values they hold in locals; they
build the channel's replies through its `build_reply` and send its shared
empty map, both from `channel.py`. This
carries the idea of Feeley & Lapalme, *Using Closures for Code Generation*
(1987), one step further: instead of one closure per node, a body runs as
one Python frame, with no dispatch on node types and no call per node.

The semantics are those of the tests' tree interpreter: operands run left
then right and arguments left to right; `&&` and `||` short-circuit and
coerce with `bool()`; every fault fires with its code and detail when the
node that raises it runs; an unwritten variable reads as its typed zero; and
each statement that writes logs exactly one undo record.

The code assumes a policy that `validate_policy` passed, run in a context
that the monitor of the body's side builds, and tests none of it again:
the stores of its side are there, an app-side body has the app's name and
id, only an app-side body blocks, every state variable it reads is typed,
and each builtin gets its own arity. At run time it tests what values can
break, and whether an event binding is there, because a logged request
that `replay_requests` handles again may lack one. A body reads and
writes the stores' dicts directly, and runs checked arithmetic and range
checks inline. Only a duration builtin of a constant argument is folded
to its value, unless computing it overflows, which then faults when the
body runs; every operator, `!`, `&&` and `||` runs when the body runs, on
constants too, as the tree interpreter's does.

A store holds values only; a write logs `(store._vals, name, old)`, and
`append` and `prune_older`, which edit a stored ts_list in place, log
`(lst, slice(i, j), items)`, the slice they changed (see `eval.rollback`).

Policy text reaches the generated source only as the `repr` of a literal
value or of a key; every name in it is the generator's own. A function
nests at most `_MAX_DEPTH` blocks (a body) or parentheses (a guard, also
one inlined into a batch's function); a deeper subtree becomes a function
of its own, so the source stays inside CPython's limits on indentation and
nested parentheses. Its caller binds it as a default argument: no
generated function is in the module's globals, so a policy dropped leaves
no reference cycle.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .channel import EMPTY, build_reply
from .eval import ABSENT, ChannelError, EvalError, duration, rule_fault
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
)
from .values import INT64_MAX, INT64_MIN, MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, VType, typed_zero

# code(ctx) -> value for an expression, code(ctx) -> blocked for an action
# body, code(truth) -> bool for a guard
Code = Callable[[Any], Any]
StateTypes = Mapping[Tuple[str, str], VType]
# the source of each condition's truth value in a guard, by condition id
Leaves = Optional[Mapping[int, str]]


def dict_source(items) -> str:
    """The source of a dict display of `(key, value source)` pairs, or of
    the shared `EMPTY` when there are none: no generated code writes a
    dict it builds."""
    pairs = ", ".join(f"{key!r}: {src}" for key, src in items)
    return "{" + pairs + "}" if pairs else "EMPTY"


# the most nested blocks (in a body) or parentheses (in a guard) that one
# generated function holds
_MAX_DEPTH = 16

_UNKNOWN = object()


class _Operand(NamedTuple):
    """A value in generated code: its source, which is a local name or a
    constant's repr, and the value itself when it is known at compile time.
    `temp` marks a name that no other node reads, which its consumer may
    therefore assign again."""

    src: str
    value: Any = _UNKNOWN
    temp: bool = False
    int64: bool = False  # whether it passed the range check of an int

    @property
    def known(self) -> bool:
        return self.value is not _UNKNOWN


def _const(value) -> _Operand:
    return _Operand(repr(value), value)


# the precedence of `||`, `&&` and `!` in generated Python, and their spelling
_LOGIC = {"||": 1, "&&": 2}
_NOT = 3
_PYTHON = {"||": "or", "&&": "and"}


def _precedence(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _LOGIC.get(expr.op, 4)
    return _NOT if isinstance(expr, Unary) else 4


def _yields_bool(expr: Expr) -> bool:
    """Whether every value of `expr` is a bool: a comparison of two values,
    `!`, `&&` or `||`."""
    if isinstance(expr, Binary):
        return expr.op in _LOGIC or expr.op in CMP_OPS
    return isinstance(expr, Unary)


# the milliseconds in one unit of each duration builtin
_DURATIONS = {"hours": MS_PER_HOUR, "minutes": MS_PER_MINUTE, "seconds": MS_PER_SECOND}

# Each builtin inline, over the sources of its arguments; the duration
# builtins and count_within add a range check (see `_Function.call`).
_CALLS = {
    "hour_of_day": f"({{0}} % {MS_PER_DAY}) // {MS_PER_HOUR}",
    "is_pm": f"({{0}} % {MS_PER_DAY}) // {MS_PER_HOUR} >= 12",
    "since_midnight": f"{{0}} % {MS_PER_DAY}",
    "same_calendar_day": f"{{0}} // {MS_PER_DAY} == {{1}} // {MS_PER_DAY}",
    "count_within": "len({0}) - bisect_left({0}, now - {1})",
    "size": "len({0})",
    "starts_with": "({0}).startswith({1})",
    "contains": "{1} in {0}",
    **{func: f"{{0}} * {ms}" for func, ms in _DURATIONS.items()},
}

# what a generated function binds first, for the names its body uses
_PROLOGUE = (
    ("ev", "ev = ctx.event_bindings"),
    ("now", "now = ctx.now"),
    ("lv", "lv = ctx.local"),
    ("gv", "gv = ctx.global_vars"),
    ("at", "at = ctx.attrs"),
    ("undo", "undo = ctx.undo"),
)

# the globals of a generated module
_NAMESPACE = {
    "ABSENT": ABSENT,
    "ChannelError": ChannelError,
    "EMPTY": EMPTY,
    "EvalError": EvalError,
    "bisect_left": bisect.bisect_left,
    "bisect_right": bisect.bisect_right,
    "build_reply": build_reply,
    "rule_fault": rule_fault,
}


class Module:
    """The functions of one generated module, each source once."""

    def __init__(self, state_types: StateTypes):
        self.state_types = state_types
        self.names: Dict[str, str] = {}  # a function's parameters and body -> its name

    def add(self, params: str, body: List[str], calls: Sequence[str] = ()) -> str:
        """Add the function of `params` whose indented lines are `body`,
        unless one with the same source is there; return its name. Each
        function of the module that `body` calls, listed in `calls`, is
        bound as a default argument of its own name, so that no function
        is reached through the module's globals and a policy dropped leaves
        no reference cycle to the collector; callees are added first."""
        params += "".join(f", {name}={name}" for name in dict.fromkeys(calls))
        key = f"({params}):\n" + "\n".join(body)
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"f{len(self.names)}"
        return name

    def expr(self, expr: Expr) -> str:
        """Add `code(ctx) -> value` for a condition body."""
        f = _Function(self)
        return f.finish(f.expr(expr))

    def stmts(self, stmts: Tuple[Stmt, ...]) -> str:
        """Add `code(ctx) -> blocked` for an action body."""
        f = _Function(self)
        f.stmts(stmts)
        return f.finish()

    def guard(self, guard: Expr, cond_ids: Mapping[str, int]) -> str:
        """Add `code(truth) -> bool` for a guard."""
        calls: List[str] = []
        return self.add("truth", ["    return " + self.guard_source(guard, cond_ids, calls)], calls)

    def guard_source(
        self, expr: Expr, cond_ids: Mapping[str, int], calls: List[str], leaves: Leaves = None, depth: int = 0
    ) -> str:
        """The source of a guard expression inside `depth` parentheses. It
        reads the truth value of condition `name` as `truth[cond_ids[name]]`,
        or, given `leaves`, as the source `leaves[cond_ids[name]]`, and
        appends to `calls` each function of the module it calls. A guard
        is `!`, `&&` and `||` over `VarRef(NS_COND, name)` leaves; any other
        node raises AssertionError."""
        if isinstance(expr, VarRef) and expr.ns == NS_COND:
            cid = cond_ids[expr.name]
            return f"truth[{cid!r}]" if leaves is None else leaves[cid]
        if isinstance(expr, Unary) and expr.op == "!":
            return "not " + self._operand(expr.operand, _NOT, cond_ids, calls, leaves, depth)
        if isinstance(expr, Binary) and expr.op in _LOGIC:
            prec = _LOGIC[expr.op]
            left = self._operand(expr.left, prec, cond_ids, calls, leaves, depth)
            return f"{left} {_PYTHON[expr.op]} {self._operand(expr.right, prec, cond_ids, calls, leaves, depth)}"
        raise AssertionError(f"unknown guard node {expr!r}")

    def _operand(
        self, expr: Expr, prec: int, cond_ids: Mapping[str, int], calls: List[str], leaves: Leaves, depth: int
    ) -> str:
        """The source of `expr` as an operand of an operator of precedence
        `prec`. `and` and `or` are associative, so only an `or` under an
        `and`, or either under a `not`, needs parentheses. Past
        `_MAX_DEPTH` parentheses the operand is a guard function of its
        own, called on a truth map of `leaves`."""
        if _precedence(expr) >= prec:
            return self.guard_source(expr, cond_ids, calls, leaves, depth)
        if depth >= _MAX_DEPTH:
            truth = "truth" if leaves is None else dict_source(leaves.items())
            name = self.guard(expr, cond_ids)
            calls.append(name)
            return f"{name}({truth})"
        return f"({self.guard_source(expr, cond_ids, calls, leaves, depth + 1)})"

    def build(self) -> Dict[str, Any]:
        """Each function by name. None is in the module's globals."""
        source = "\n".join(f"def {name}{key}" for key, name in self.names.items())
        functions: Dict[str, Any] = {}
        exec(compile(source, "<dcmon policy>", "exec", dont_inherit=True), dict(_NAMESPACE), functions)
        return functions


class _Function:
    """The body of one generated function `f(ctx)`, as it is written."""

    def __init__(self, module: Module):
        self.module = module
        self.state_types = module.state_types
        self.lines: List[str] = []
        self.uses: set = set()  # the prologue names the body reads
        self.calls: List[str] = []  # the split-off functions the body calls
        self.depth = 1  # the indentation of the next line
        self.temps = 0

    def finish(self, result: "_Operand | None" = None) -> str:
        """Add the function to the module, returning `result`, and return
        its name."""
        if result is not None:
            last = self.lines[-1] if self.lines else ""
            assign = f"    {result.src} = "
            if result.temp and last.startswith(assign):
                self.lines[-1] = "    return " + last[len(assign):]
            else:
                self.emit(f"return {result.src}")
        prologue = ["    " + line for name, line in _PROLOGUE if name in self.uses]
        return self.module.add("ctx", prologue + self.lines, self.calls)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def assign(self, src: str) -> _Operand:
        name = f"v{self.temps}"
        self.temps += 1
        self.emit(f"{name} = {src}")
        return _Operand(name, temp=True)

    # expressions

    def expr(self, expr: Expr) -> _Operand:
        if isinstance(expr, Literal):
            return _const(expr.value)
        if isinstance(expr, VarRef):
            return self.read(expr)
        if isinstance(expr, Unary) and expr.op == "!":
            return self.assign(f"not {self.expr(expr.operand).src}")
        if isinstance(expr, Binary):
            return self.logic(expr) if expr.op in _LOGIC else self.binary(expr)
        if isinstance(expr, Call):
            return self.call(expr)
        raise AssertionError(f"unknown expression node {expr!r}")

    def read(self, expr: VarRef) -> _Operand:
        ns, name = expr.ns, expr.name
        if ns == NS_CTX:
            if name == "now":
                self.uses.add("now")
                return _Operand("now")
            # app_name or app_id, which only the app side reads
            return self.assign(f"ctx.{name}")
        if ns == NS_EVENT:
            # a forwarded binding that a logged request lacks is unbound
            self.uses.add("ev")
            self.emit(f"if {name!r} not in ev: raise EvalError('UnboundVariable', {name!r})")
            return self.assign(f"ev[{name!r}]")
        kind = self.state_types[(ns, name)]
        store = self.store(ns)
        if kind is VType.TS_LIST:
            # a fresh empty list for each read, as VarStore.get gives
            return self.assign(f"{store}._vals[{name!r}] if {name!r} in {store}._vals else []")
        return self.assign(f"{store}._vals.get({name!r}, {typed_zero(kind)!r})")

    def truth(self, expr: Expr, operand: _Operand) -> _Operand:
        """`bool()` of `operand`, the value of `expr`, in a name that no
        other node reads: a bool-valued node's value is already in one."""
        return operand if _yields_bool(expr) else self.assign(f"not not {operand.src}")

    def logic(self, expr: Binary) -> _Operand:
        # the left operand's truth value that decides the result
        decides = expr.op == "||"
        result = self.truth(expr.left, self.expr(expr.left))
        self.emit(f"if {'not ' if decides else ''}{result.src}:")
        self.depth += 1
        right = self.nested(expr.right).src
        if not _yields_bool(expr.right):
            right = f"not not {right}"
        self.emit(f"{result.src} = {right}")
        self.depth -= 1
        return result

    def nested(self, expr: Expr) -> _Operand:
        """The value of `expr` one block deeper; past `_MAX_DEPTH` blocks it
        is computed by a function of its own."""
        if self.depth <= _MAX_DEPTH:
            return self.expr(expr)
        inner = _Function(self.module)
        name = inner.finish(inner.expr(expr))
        self.calls.append(name)
        return self.assign(f"{name}(ctx)")

    def binary(self, expr: Binary) -> _Operand:
        op = expr.op
        a, b = self.expr(expr.left).src, self.expr(expr.right).src
        if op in CMP_OPS:
            return self.assign(f"{a} {op} {b}")
        if op in ("+", "-", "*"):
            return self.checked(self.assign(f"{a} {op} {b}"))
        if op != "/":
            raise AssertionError(f"unknown operator {op}")
        # truncating division; INT64_MIN / -1 is the one quotient out of range
        self.emit(f"if {b} == 0: raise EvalError('DivisionByZero')")
        q = self.assign(f"abs({a}) // abs({b})")
        return self.checked(self.assign(f"{q.src} if ({a} >= 0) == ({b} >= 0) else -{q.src}"))

    def checked(self, n: _Operand) -> _Operand:
        self.emit(f"if not {INT64_MIN} <= {n.src} <= {INT64_MAX}: raise EvalError('Overflow')")
        return n._replace(int64=True)

    def range_checked(self, n: _Operand, fault: str) -> _Operand:
        """`n`, which must be neither negative nor past INT64_MAX."""
        if n.known:
            try:
                if not n.value < 0 and INT64_MIN <= n.value <= INT64_MAX:
                    return n
            except Exception:
                pass  # the check raises when the body runs
        self.emit(f"if {n.src} < 0: raise EvalError({fault!r})")
        return n if n.int64 else self.checked(n)

    def call(self, expr: Call) -> _Operand:
        func = expr.func
        if func not in _CALLS:
            raise AssertionError(f"unknown builtin {func}")
        args = [self.expr(arg) for arg in expr.args]
        if func in _DURATIONS and args[0].known:
            try:
                return _const(duration(args[0].value * _DURATIONS[func]))
            except Exception:
                pass  # the fault fires when the body runs
        elif func == "count_within":
            self.range_checked(args[1], "NegativeDuration")
        if func == "count_within":
            self.uses.add("now")
        value = self.assign(_CALLS[func].format(*(arg.src for arg in args)))
        return self.range_checked(value, "NegativeDuration") if func in _DURATIONS else value

    def typed(self, expr: Expr, kind: VType) -> _Operand:
        """The value of `expr` with the range check of `kind` applied."""
        value = self.expr(expr)
        if kind is VType.DURATION:
            return self.range_checked(value, "NegativeDuration")
        if kind is VType.TIMESTAMP:
            return self.range_checked(value, "NegativeTimestamp")
        return value

    # statements

    def stmts(self, stmts: Tuple[Stmt, ...]) -> None:
        for stmt in stmts:
            self.stmt(stmt)
        self.emit(f"return {any(isinstance(s, BlockStmt) for s in stmts)!r}")

    def stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, BlockStmt):
            pass  # `stmts` returns whether the body blocks
        elif isinstance(stmt, Assign):
            kind = self.state_types[(stmt.ns, stmt.name)]
            value = self.typed(stmt.value, kind).src
            if kind is VType.TS_LIST:
                # a list is copied, so that no two variables share one
                value = f"list({value})"
            self.write(self.store(stmt.ns), stmt.name, value)
        elif isinstance(stmt, AppendStmt):
            self.append(stmt)
        elif isinstance(stmt, PruneStmt):
            self.prune(stmt)
        elif isinstance(stmt, SetAttrStmt):
            value = self.typed(stmt.value, self.state_types[("attr", stmt.attr)]).src
            self.uses.add("at")
            self.write("at", stmt.attr, value)
        else:
            raise AssertionError(f"unknown statement node {stmt!r}")

    def store(self, ns: str) -> str:
        """The name of the local or global store, which the body now uses."""
        store = "lv" if ns == NS_LOCAL else "gv"
        self.uses.add(store)
        return store

    def write(self, store: str, name: str, value: str, old: str = "") -> None:
        """Log what `store` holds under `name`, ABSENT if nothing, then store
        `value` there; `old` is the source of what it holds, when known."""
        self.uses.add("undo")
        old = old or f"{store}._vals.get({name!r}, ABSENT)"
        self.emit(f"undo.append(({store}._vals, {name!r}, {old}))")
        self.emit(f"{store}._vals[{name!r}] = {value}")

    def in_place(self, store: str, name: str) -> _Operand:
        """Open the branch for a stored ts_list, and return the list."""
        self.emit(f"if {name!r} in {store}._vals:")
        self.depth += 1
        return self.assign(f"{store}._vals[{name!r}]")

    def otherwise(self) -> None:
        self.depth -= 1
        self.emit("else:")
        self.depth += 1

    def append(self, stmt: AppendStmt) -> None:
        store, name = self.store(stmt.ns), stmt.name
        ts = self.typed(stmt.value, VType.TIMESTAMP).src
        self.uses.add("undo")
        lst = self.in_place(store, name).src
        i = self.assign(f"bisect_right({lst}, {ts})").src
        self.emit(f"{lst}.insert({i}, {ts})")
        self.emit(f"undo.append(({lst}, slice({i}, {i} + 1), ()))")
        self.otherwise()
        self.write(store, name, f"[{ts}]", "ABSENT")
        self.depth -= 1

    def prune(self, stmt: PruneStmt) -> None:
        store, name = self.store(stmt.ns), stmt.name
        horizon = self.typed(stmt.horizon, VType.DURATION).src
        self.uses.update(("now", "undo"))
        cutoff = self.assign(f"now - {horizon}").src
        lst = self.in_place(store, name).src
        cut = self.assign(f"bisect_left({lst}, {cutoff})").src
        self.emit(f"undo.append(({lst}, slice(0, 0), {lst}[:{cut}]))")
        self.emit(f"del {lst}[:{cut}]")
        self.otherwise()
        self.write(store, name, "[]", "ABSENT")
        self.depth -= 1
