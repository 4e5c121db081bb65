"""The two records of the channel log, and the map that requests share.

A round trip with the central monitor is one `MonitorRequest` and one
`MonitorReply`, and the channel log holds both records themselves. They
sit below the monitors and `engine.py` because the generated central
function of a batch builds its reply (see `codegen.py`).

A logged record shares what it holds: a batch's requests share one truth
map per vector of truth values, its replies one `(guard_results,
appside_actions_to_run)` pair per vector of guard bits, and every empty
truth or forwarded map the monitors send is `EMPTY`. Nothing may change a
map or a tuple of a record, once built.

The replay builds every record it keeps through `record_builder`, not
through the class call: `build_request` and `build_reply` here, and the
verdict's builder in `sim.py`. The class call stays the public
constructor, and both give equal records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple

from .values import Value, canonical_json

APP_TO_CENTRAL = "AppToCentral"
CENTRAL_TO_APP = "CentralToApp"

# the one empty truth or forwarded map of the requests the monitors send,
# and the empty bindings of a batch's local function; nothing writes it
EMPTY: Dict = {}


def record_builder(cls: type) -> Callable[..., object]:
    """A function `build(<the fields of cls, in order>)` that returns an
    instance of `cls`, a slotted dataclass, built with `object.__new__`
    and one slot store per field.

    It returns what the class call returns, without it: in CPython 3.11 a
    class whose `__init__` is Python code runs that `__init__` in an
    evaluation of its own, through `type_call` and `slot_tp_init`, while a
    call from one Python function to another stays in the caller's. So a
    record costs 35-110 ns less (CPython 3.11.7, a shared 2-CPU Linux
    host). A field with a default, a non-init field or a `__post_init__`
    would make the two calls differ, and a field named `new`, `cls` or
    `record` would hide the builder's own names, so such a class raises
    TypeError, as one with no slots does."""
    fields = dataclasses.fields(cls)
    if "__slots__" not in cls.__dict__ or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} is not a slotted dataclass without __post_init__")
    for f in fields:
        if not f.init or f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{f.name} has a default or is not an init field")
        if f.name in ("new", "cls", "record"):
            raise TypeError(f"{cls.__name__}.{f.name} takes a name the builder uses")
    names = [f.name for f in fields]
    lines = [f"def build({', '.join(names)}):", "    record = new(cls)"]
    lines += [f"    record.{name} = {name}" for name in names]
    lines.append("    return record")
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), {"new": object.__new__, "cls": cls}, namespace)
    return namespace["build"]


class _LoggedMessage:
    """The channel log's view of a request or a reply: its direction, a
    class constant, and the seq, time, app and rule ids of the request."""

    __slots__ = ()

    def to_json(self) -> str:
        return canonical_json(
            {
                "direction": self.direction,
                "seq": self.seq,
                "t": self.t,
                "app_id": self.app_id,
                "rule_id": self.rule_id,
                "payload": self.payload,
            }
        )


@dataclass(slots=True)
class MonitorRequest(_LoggedMessage):
    """One round trip for the NeedsGlobal rules of one batch. The truth map
    holds the app-side conditions of all the rules, the bindings every
    event parameter any of them forwards."""

    direction: ClassVar[str] = APP_TO_CENTRAL

    seq: int
    app_id: str
    # the rule ids, in batch order
    rule_id: Tuple[int, ...]
    t: int
    appside_truth: Dict[int, bool]
    forwarded_bindings: Dict[str, Value]

    @property
    def payload(self) -> Dict[str, object]:
        return {"appside_truth": self.appside_truth, "forwarded_bindings": self.forwarded_bindings}


@dataclass(slots=True)
class MonitorReply(_LoggedMessage):
    """Per-rule results, parallel to the request's rule ids. The reply
    repeats its request's seq, app, rule ids and time."""

    direction: ClassVar[str] = CENTRAL_TO_APP

    seq: int
    app_id: str
    rule_id: Tuple[int, ...]
    t: int
    guard_results: Tuple[bool, ...]
    appside_actions_to_run: Tuple[Tuple[int, ...], ...]
    faults: Tuple[Optional[str], ...]

    @property
    def guard_result(self) -> bool:
        """Whether any rule's guard held."""
        return True in self.guard_results

    @property
    def fault(self) -> Optional[str]:
        """The first rule's fault, if any rule faulted."""
        return next((f for f in self.faults if f is not None), None)

    @property
    def payload(self) -> Dict[str, object]:
        return {
            "guard_result": self.guard_results,
            "appside_actions_to_run": self.appside_actions_to_run,
            "fault": self.faults,
        }


# the replay's constructors of the two records (see `record_builder`)
build_request = record_builder(MonitorRequest)
build_reply = record_builder(MonitorReply)
