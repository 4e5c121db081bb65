"""Runtime value model for the monitor expression language.

Values are plain Python objects for speed; the static kind of every
expression and state variable is tracked separately (see check.py), so the
runtime never has to guess whether an int is a count, a virtual timestamp
or a duration.

Kinds:
    bool      -> bool
    int       -> int (64-bit signed, checked at operation sites)
    string    -> str
    timestamp -> int, virtual milliseconds since the simulation epoch
    duration  -> int, nonnegative milliseconds
    ts_list   -> list[int] of timestamps, sorted ascending
"""

from __future__ import annotations

import enum
import json
from typing import Union

Value = Union[bool, int, str, list]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

MS_PER_SECOND = 1_000
MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000


class VType(enum.Enum):
    BOOL = "bool"
    INT = "int"
    STRING = "string"
    TIMESTAMP = "timestamp"
    DURATION = "duration"
    TS_LIST = "ts_list"

    def __str__(self) -> str:
        return self.value


# Source-level spellings accepted for event parameter declarations.
TYPE_NAMES = {
    "bool": VType.BOOL,
    "boolean": VType.BOOL,
    "int": VType.INT,
    "string": VType.STRING,
    "timestamp": VType.TIMESTAMP,
    "duration": VType.DURATION,
}

_ZEROS = {
    VType.BOOL: False,
    VType.INT: 0,
    VType.STRING: "",
    VType.TIMESTAMP: 0,
    VType.DURATION: 0,
}


def typed_zero(vt: VType) -> Value:
    """Default value of an unwritten state variable."""
    if vt is VType.TS_LIST:
        return []
    return _ZEROS[vt]


def copy_value(v: Value) -> Value:
    return list(v) if isinstance(v, list) else v


def value_to_json(vt: VType, v: Value):
    """JSON-ready form; lists are copied so snapshots never alias state."""
    return list(v) if vt is VType.TS_LIST else v


def canonical_json(doc) -> str:
    """The byte-stable JSON of every dcmon output: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
