"""Typed key-value store backing monitor state and device attributes."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from .values import Value, VType, copy_value, typed_zero


class VarStore:
    """Mutable name -> value map that remembers each entry's kind.

    Reading a name that was never written yields the typed zero for the
    kind the caller expects, mirroring how policies use counters without
    initializing them.
    """

    __slots__ = ("_vals", "_kinds")

    def __init__(self) -> None:
        self._vals: Dict[str, Value] = {}
        self._kinds: Dict[str, VType] = {}

    def get(self, name: str, kind: VType) -> Value:
        if name in self._vals:
            return self._vals[name]
        return typed_zero(kind)

    def set(self, name: str, kind: VType, value: Value) -> None:
        self._vals[name] = value
        self._kinds[name] = kind

    def discard(self, name: str) -> None:
        """Forget `name`, so that reading it yields the typed zero again."""
        self._vals.pop(name, None)
        self._kinds.pop(name, None)

    def kind_of(self, name: str) -> "VType | None":
        return self._kinds.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._vals

    def __len__(self) -> int:
        return len(self._vals)

    def items_typed(self) -> Iterator[Tuple[str, VType, Value]]:
        for name in sorted(self._vals):
            yield name, self._kinds[name], self._vals[name]

    def copy(self) -> "VarStore":
        out = VarStore()
        for name, value in self._vals.items():
            out._vals[name] = copy_value(value)
        out._kinds.update(self._kinds)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarStore):
            return NotImplemented
        return self._vals == other._vals and self._kinds == other._kinds

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, _, v in self.items_typed())
        return f"VarStore({body})"
