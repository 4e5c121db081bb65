from .values import Value, VType, TYPE_NAMES, typed_zero, MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND
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
    NS_CTX,
    NS_EVENT,
    NS_LOCAL,
)
from .check import BUILTINS, LangError, TypeMismatch, UnboundVariable, TypeEnv, type_check, check_stmt, infer_state_types
from .state import VarStore
from .eval import (
    APP_SIDE,
    GLOBAL_SIDE,
    EvalContext,
    EvalError,
    rollback,
)

__all__ = [name for name in dir() if not name.startswith("_")]
