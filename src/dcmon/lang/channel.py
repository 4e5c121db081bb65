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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from .values import Value, canonical_json

APP_TO_CENTRAL = "AppToCentral"
CENTRAL_TO_APP = "CentralToApp"

# the one empty truth or forwarded map of the requests the monitors send,
# and the empty bindings of a batch's local function; nothing writes it
EMPTY: Dict = {}


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
