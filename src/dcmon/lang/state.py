"""Key-value store backing monitor state and device attributes."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

from .values import Value, VType, copy_value, typed_zero


class VarStore:
    """Mutable name -> value map over `kinds`, the fixed kind of each name,
    which its copies share: the store holds values only.

    Reading a name that was never written yields the typed zero for the
    kind the caller expects, mirroring how policies use counters without
    initializing them.
    """

    __slots__ = ("_vals", "kinds")

    def __init__(self, kinds: Mapping[str, VType]) -> None:
        self._vals: Dict[str, Value] = {}
        self.kinds = kinds

    def get(self, name: str, kind: VType) -> Value:
        if name in self._vals:
            return self._vals[name]
        return typed_zero(kind)

    def set(self, name: str, value: Value) -> None:
        self._vals[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._vals

    def items_typed(self) -> Iterator[Tuple[str, VType, Value]]:
        for name in sorted(self._vals):
            yield name, self.kinds[name], self._vals[name]

    def copy(self) -> "VarStore":
        out = VarStore(self.kinds)
        out._vals = {name: copy_value(value) for name, value in self._vals.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarStore):
            return NotImplemented
        return self._vals == other._vals and self.kinds == other.kinds

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, _, v in self.items_typed())
        return f"VarStore({body})"
