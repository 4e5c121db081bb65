"""Static typing for condition and action bodies.

`type_check` types a single expression against an environment mapping
(namespace, name) pairs to kinds. State variable kinds are not declared in
policy source; `infer_state_types` recovers them from the assignments the
policy performs, probing candidate kinds for self-referential updates like
`global.n := global.n + 1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

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
    Span,
    Stmt,
    Unary,
    VarRef,
    walk_exprs,
)
from .values import INT64_MAX, INT64_MIN, VType

TypeEnv = Dict[Tuple[str, str], VType]


class LangError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span[0]}:{span[1]}: {message}")
        self.span = span
        self.message = message


class TypeMismatch(LangError):
    def __init__(self, span: Span, expected: str, found: str):
        super().__init__(span, f"expected {expected}, found {found}")
        self.expected = expected
        self.found = found


class UnboundVariable(LangError):
    def __init__(self, span: Span, ns: str, name: str):
        label = name if ns in ("event", "ctx") else f"{ns}.{name}"
        super().__init__(span, f"unbound variable {label}")
        self.ns = ns
        self.name = name


# name -> (argument kinds, result kind)
BUILTINS: Dict[str, Tuple[Tuple[VType, ...], VType]] = {
    "hour_of_day": ((VType.TIMESTAMP,), VType.INT),
    "is_pm": ((VType.TIMESTAMP,), VType.BOOL),
    "since_midnight": ((VType.TIMESTAMP,), VType.DURATION),
    "same_calendar_day": ((VType.TIMESTAMP, VType.TIMESTAMP), VType.BOOL),
    "count_within": ((VType.TS_LIST, VType.DURATION), VType.INT),
    "size": ((VType.TS_LIST,), VType.INT),
    "hours": ((VType.INT,), VType.DURATION),
    "minutes": ((VType.INT,), VType.DURATION),
    "seconds": ((VType.INT,), VType.DURATION),
    "starts_with": ((VType.STRING, VType.STRING), VType.BOOL),
    "contains": ((VType.STRING, VType.STRING), VType.BOOL),
}

_SCALARS = (VType.BOOL, VType.INT, VType.STRING, VType.TIMESTAMP, VType.DURATION)
_ORDERED = (VType.INT, VType.TIMESTAMP, VType.DURATION)

# op -> (the kinds its left operand may have, their label); the right
# operand must have the left one's kind, and the result is a bool
_BOOL_OPS: Dict[str, Tuple[Tuple[VType, ...], str]] = {
    "&&": ((VType.BOOL,), "bool"),
    "||": ((VType.BOOL,), "bool"),
    "==": (_SCALARS, "comparable value"),
    "!=": (_SCALARS, "comparable value"),
    "<": (_ORDERED, "ordered value"),
    "<=": (_ORDERED, "ordered value"),
    ">": (_ORDERED, "ordered value"),
    ">=": (_ORDERED, "ordered value"),
}

# (op, left kind, right kind) -> result kind
_ARITH: Dict[Tuple[str, VType, VType], VType] = {
    ("+", VType.INT, VType.INT): VType.INT,
    ("+", VType.DURATION, VType.DURATION): VType.DURATION,
    ("+", VType.TIMESTAMP, VType.DURATION): VType.TIMESTAMP,
    ("-", VType.INT, VType.INT): VType.INT,
    ("-", VType.DURATION, VType.DURATION): VType.DURATION,
    ("-", VType.TIMESTAMP, VType.TIMESTAMP): VType.DURATION,
    ("-", VType.TIMESTAMP, VType.DURATION): VType.TIMESTAMP,
    ("*", VType.INT, VType.INT): VType.INT,
    ("/", VType.INT, VType.INT): VType.INT,
}


def type_check(expr: Expr, env: TypeEnv) -> VType:
    """Kind of `expr` under `env`; raises on the first ill-typed node."""
    if isinstance(expr, Literal):
        if expr.vtype is VType.INT and not (INT64_MIN <= expr.value <= INT64_MAX):
            raise TypeMismatch(expr.span, "64-bit integer", "out-of-range literal")
        return expr.vtype
    if isinstance(expr, VarRef):
        key = (expr.ns, expr.name)
        if key not in env:
            raise UnboundVariable(expr.span, expr.ns, expr.name)
        return env[key]
    if isinstance(expr, Unary):
        t = type_check(expr.operand, env)
        if t is not VType.BOOL:
            raise TypeMismatch(expr.span, "bool", str(t))
        return VType.BOOL
    if isinstance(expr, Binary):
        lt = type_check(expr.left, env)
        rt = type_check(expr.right, env)
        op = expr.op
        if op in _BOOL_OPS:
            kinds, label = _BOOL_OPS[op]
            if lt not in kinds:
                raise TypeMismatch(expr.span, label, str(lt))
            if rt is not lt:
                raise TypeMismatch(expr.span, str(lt), str(rt))
            return VType.BOOL
        res = _ARITH.get((op, lt, rt))
        if res is None:
            raise TypeMismatch(expr.span, f"operands for {op}", f"{lt} {op} {rt}")
        return res
    if isinstance(expr, Call):
        sig = BUILTINS.get(expr.func)
        if sig is None:
            raise UnboundVariable(expr.span, "ctx", expr.func)
        want, result = sig
        if len(expr.args) != len(want):
            raise TypeMismatch(expr.span, f"{len(want)} arguments to {expr.func}", str(len(expr.args)))
        for arg, wt in zip(expr.args, want):
            at = type_check(arg, env)
            if at is not wt:
                raise TypeMismatch(arg.span if hasattr(arg, "span") else expr.span, str(wt), str(at))
        return result
    raise AssertionError(f"unknown expression node {expr!r}")


def check_stmt(stmt: Stmt, env: TypeEnv) -> None:
    """Type a statement whose state variable kinds are already in env."""
    if isinstance(stmt, Assign):
        key = (stmt.ns, stmt.name)
        if key not in env:
            raise UnboundVariable(stmt.span, stmt.ns, stmt.name)
        vt = type_check(stmt.value, env)
        if vt is not env[key]:
            raise TypeMismatch(stmt.span, str(env[key]), str(vt))
    elif isinstance(stmt, (AppendStmt, PruneStmt)):
        key = (stmt.ns, stmt.name)
        if env.get(key) is not VType.TS_LIST:
            raise TypeMismatch(stmt.span, "ts_list", str(env.get(key, "unassigned")))
        operand, want = (stmt.value, VType.TIMESTAMP) if isinstance(stmt, AppendStmt) else (stmt.horizon, VType.DURATION)
        vt = type_check(operand, env)
        if vt is not want:
            raise TypeMismatch(stmt.span, str(want), str(vt))
    elif isinstance(stmt, SetAttrStmt):
        vt = type_check(stmt.value, env)
        if vt not in _SCALARS:
            raise TypeMismatch(stmt.span, "scalar attribute value", str(vt))
    elif isinstance(stmt, BlockStmt):
        pass
    else:
        raise AssertionError(f"unknown statement node {stmt!r}")


@dataclass(frozen=True)
class InferenceIssue:
    span: Span
    message: str
    code: str = "TypeError"


_PROBE_ORDER = (VType.BOOL, VType.INT, VType.STRING, VType.TIMESTAMP, VType.DURATION, VType.TS_LIST)


def _state_refs(expr: Expr) -> List[Tuple[str, str]]:
    return [(e.ns, e.name) for e in walk_exprs(expr) if isinstance(e, VarRef) and e.ns in ("local", "global")]


def infer_state_types(
    assignments: Iterable[Tuple[Stmt, List[TypeEnv]]],
) -> Tuple[Dict[Tuple[str, str], VType], List[InferenceIssue]]:
    """Fixpoint kind inference over every state-mutating statement.

    `assignments` pairs each Assign/Append/Prune statement with the event
    parameter environments of the rules that can run it (one empty env when
    the enclosing action is never used). Append/prune targets are pinned to
    ts_list immediately; plain assignments are retried until their
    right-hand side types, probing candidates when the target reads itself.
    """
    types: Dict[Tuple[str, str], VType] = {}
    issues: List[InferenceIssue] = []
    pending: List[Tuple[Assign, List[TypeEnv]]] = []

    def bind(key: Tuple[str, str], vt: VType, span: Span) -> None:
        prior = types.get(key)
        if prior is not None and prior is not vt:
            issues.append(
                InferenceIssue(span, f"{key[0]}.{key[1]} written as both {prior} and {vt}")
            )
            return
        types[key] = vt

    for stmt, envs in assignments:
        if isinstance(stmt, (AppendStmt, PruneStmt)):
            bind((stmt.ns, stmt.name), VType.TS_LIST, stmt.span)
        elif isinstance(stmt, Assign):
            pending.append((stmt, envs if envs else [{}]))

    def try_rhs(stmt: Assign, envs: List[TypeEnv], extra: TypeEnv) -> "VType | None":
        results = set()
        for env in envs:
            merged = dict(env)
            merged.update(types)
            merged.update(extra)
            try:
                results.add(type_check(stmt.value, merged))
            except LangError:
                return None
        if len(results) != 1:
            return None
        return results.pop()

    progress = True
    while progress and pending:
        progress = False
        remaining: List[Tuple[Assign, List[TypeEnv]]] = []
        for stmt, envs in pending:
            key = (stmt.ns, stmt.name)
            self_ref = key not in types and key in _state_refs(stmt.value)
            if self_ref:
                fits = [c for c in _PROBE_ORDER if try_rhs(stmt, envs, {key: c}) is c]
                if len(fits) == 1:
                    bind(key, fits[0], stmt.span)
                    progress = True
                    continue
                if len(fits) > 1:
                    issues.append(
                        InferenceIssue(stmt.span, f"ambiguous kind for {key[0]}.{key[1]}")
                    )
                    progress = True
                    continue
            else:
                vt = try_rhs(stmt, envs, {})
                if vt is not None:
                    bind(key, vt, stmt.span)
                    progress = True
                    continue
            remaining.append((stmt, envs))
        pending = remaining

    for stmt, _ in pending:
        issues.append(
            InferenceIssue(stmt.span, f"cannot infer kind of {stmt.ns}.{stmt.name}")
        )
    return types, issues
