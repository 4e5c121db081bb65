"""Fixed API catalog and attribute table of the simulated device.

Every trace event must name a catalog entry, and every event pattern in a
policy must match one (namespace, method, parameter types, return type):
`pattern_mismatches` says how one does not. Each entry also states its
effect on the device, as data that `execute_effect` carries out: four
entries return a constant and touch no state, `setWifiEnabled` writes a
device attribute from its argument, and `dialCall` and `endCall` set and
read whether a call is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .lang.state import VarStore
from .lang.values import Value, VType, typed_zero


_PY_KINDS = {
    VType.BOOL: bool,
    VType.INT: int,
    VType.STRING: str,
}


# one entry per API, which every trace event of the API shares: equal only to itself
@dataclass(frozen=True, eq=False, slots=True)
class ApiCatalogEntry:
    """A call of the device and its effect. A call returns `returns`, or,
    when that is None, whether a call was active; it writes its first
    argument into the device attribute `writes_attr`, and leaves
    `call_active` at `sets_call`, when these are not None."""

    namespace: str
    method: str
    param_types: Tuple[VType, ...]
    return_type: VType
    returns: Optional[Value] = True
    writes_attr: Optional[str] = None
    sets_call: Optional[bool] = None
    # Derived once: the replay reads the call of every event. `arg_types`
    # holds the Python type of a plain argument of each parameter; arguments
    # of exactly these types match, others are checked by `arg_matches`.
    # `constant_return` is the return of an entry that touches no state,
    # None for one that does.
    call: str = field(init=False, repr=False)
    arg_types: Tuple[Optional[type], ...] = field(init=False, repr=False)
    constant_return: Optional[Value] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "call", f"{self.namespace}.{self.method}")
        object.__setattr__(self, "arg_types", tuple(_PY_KINDS.get(vt) for vt in self.param_types))
        stateless = self.writes_attr is None and self.sets_call is None
        object.__setattr__(self, "constant_return", self.returns if stateless else None)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.namespace, self.method)


CATALOG: Dict[Tuple[str, str], ApiCatalogEntry] = {
    entry.key: entry
    for entry in (
        ApiCatalogEntry("SmsManager", "sendTextMessage", (VType.STRING, VType.STRING), VType.BOOL),
        ApiCatalogEntry("WifiManager", "setWifiEnabled", (VType.BOOL,), VType.BOOL, writes_attr="wifi_enabled"),
        ApiCatalogEntry("TelephonyManager", "dialCall", (VType.STRING,), VType.BOOL, sets_call=True),
        ApiCatalogEntry("TelephonyManager", "endCall", (), VType.BOOL, returns=None, sets_call=False),
        ApiCatalogEntry("WebBrowser", "requestUrl", (VType.STRING,), VType.BOOL),
        ApiCatalogEntry("FileSystem", "openFile", (VType.STRING, VType.STRING), VType.BOOL),
        ApiCatalogEntry("AppLauncher", "launchApp", (VType.STRING,), VType.BOOL),
    )
}

API_OF_CALL: Dict[str, ApiCatalogEntry] = {entry.call: entry for entry in CATALOG.values()}

# The device's attributes and their kinds. Each starts as its kind's zero,
# and a policy's set_attr must write it as its kind.
DEVICE_ATTRS: Dict[str, VType] = {"wifi_enabled": VType.BOOL}


def _kinds(types: Tuple[VType, ...]) -> str:
    return ", ".join(str(t) for t in types)


def pattern_mismatches(
    namespace: str, method: str, param_types: Optional[Tuple[VType, ...]], return_kind: Optional[VType]
) -> List[str]:
    """How an event pattern disagrees with the catalog: it names an unknown
    API, or its parameter types (None for `(...)`) or the kind that binds
    the call's return (None when nothing binds it) differ from the entry's."""
    entry = CATALOG.get((namespace, method))
    if entry is None:
        return [f"intercepts unknown API {namespace}.{method}"]
    problems = []
    if param_types is not None and param_types != entry.param_types:
        problems.append(
            f"declares parameter types ({_kinds(param_types)}) but {entry.call} takes ({_kinds(entry.param_types)})"
        )
    if return_kind is not None and return_kind is not entry.return_type:
        problems.append(f"binds the return of {entry.call} as {return_kind}, which returns {entry.return_type}")
    return problems


def arg_matches(vtype: VType, value: Value) -> bool:
    py = _PY_KINDS.get(vtype)
    if py is bool:
        return isinstance(value, bool)
    if py is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if py is str:
        return isinstance(value, str)
    return False


@dataclass
class DeviceState:
    """Simulator-side device: the attributes, a store over `DEVICE_ATTRS`,
    and whether a call is active, all the state a catalog effect writes."""

    attrs: VarStore = field(default_factory=lambda: VarStore(DEVICE_ATTRS))
    call_active: bool = False

    def __post_init__(self) -> None:
        for name, kind in DEVICE_ATTRS.items():
            if name not in self.attrs:
                self.attrs.set(name, typed_zero(kind))


def execute_effect(entry: ApiCatalogEntry, args: Tuple[Value, ...], device: DeviceState) -> Value:
    """Carry out `entry`'s effect on `device`; return the call's value. An
    attribute is written as a value only: its kind is `DEVICE_ATTRS`'s."""
    ret = device.call_active if entry.returns is None else entry.returns
    if entry.writes_attr is not None:
        device.attrs.set(entry.writes_attr, args[0])
    if entry.sets_call is not None:
        device.call_active = entry.sets_call
    return ret
