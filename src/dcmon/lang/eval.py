"""Run-time support for compiled condition and action bodies.

The monitors run the functions that `codegen.py` generates. This module
holds what that code and the monitors share: the evaluation context, the
faults (`ChannelError` too, which a batch's generated function catches),
the checked `duration` that folds a duration builtin of a constant,
`rollback`, and `rule_fault`, which rolls back a faulting rule of a
request and records its fault.

A statement writes the stores attached to the context in place, and
records in the context's undo log what each write overwrote, so that a
caller can roll a faulting rule back to the state it started from.

Each monitor builds one context for its side, which the generated code
trusts: an app-side one holds the app's local store, the attribute store
and the app's name and id, and a global-side one the global and attribute
stores. `side` is that side's name; no generated line reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .state import VarStore
from .values import INT64_MAX, INT64_MIN, Value

APP_SIDE = "app"
GLOBAL_SIDE = "global"


class EvalError(Exception):
    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


class ChannelError(Exception):
    """The central monitor is unreachable."""


# the `old` of a write that created its name
ABSENT = object()

# (container, key, old): a store write logs (store._vals, name, old), and an
# append or prune that edited a stored ts_list in place (lst, slice(i, j),
# items), the slice it changed and what the slice held
UndoEntry = Tuple[Union[dict, list], Union[str, slice], object]


@dataclass(slots=True)
class EvalContext:
    side: str  # APP_SIDE or GLOBAL_SIDE
    now: int
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


def duration(n: int) -> int:
    if n < 0:
        raise EvalError("NegativeDuration")
    return _checked_int(n)


def rollback(undo: List[UndoEntry]) -> None:
    """Undo the logged writes, newest first, and empty the log. A name the
    writes created is removed again."""
    while undo:
        container, key, old = undo.pop()
        if old is ABSENT:
            del container[key]
        else:
            container[key] = old


def rule_fault(undo: List[UndoEntry], faults: Tuple[Optional[str], ...], k: int, ex: EvalError) -> Tuple[Optional[str], ...]:
    """Roll back the writes of the k-th rule of a request, which raised
    `ex`, and return the reply's `faults` with that rule's fault set."""
    rollback(undo)
    return (*faults[:k], f"EvalFault:{ex}", *faults[k + 1 :])
