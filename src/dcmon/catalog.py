"""Fixed API catalog and attribute table of the simulated device.

Every trace event must name a catalog entry, and every event pattern in a
policy must match one (namespace, method, parameter types, return type):
`pattern_mismatches` says how one does not. Executing an entry's effect
mutates the device and produces the call's return value.
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
    namespace: str
    method: str
    param_types: Tuple[VType, ...]
    return_type: VType
    effect: str
    # Derived once: the replay reads the call of every event. `arg_types`
    # holds the Python type of a plain argument of each parameter; arguments
    # of exactly these types match, others are checked by `arg_matches`.
    call: str = field(init=False, repr=False)
    arg_types: Tuple[Optional[type], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "call", f"{self.namespace}.{self.method}")
        object.__setattr__(self, "arg_types", tuple(_PY_KINDS.get(vt) for vt in self.param_types))

    @property
    def key(self) -> Tuple[str, str]:
        return (self.namespace, self.method)


CATALOG: Dict[Tuple[str, str], ApiCatalogEntry] = {
    entry.key: entry
    for entry in (
        ApiCatalogEntry(
            "SmsManager", "sendTextMessage", (VType.STRING, VType.STRING), VType.BOOL,
            "increments the device message tally",
        ),
        ApiCatalogEntry(
            "WifiManager", "setWifiEnabled", (VType.BOOL,), VType.BOOL,
            "sets the wifi_enabled device attribute",
        ),
        ApiCatalogEntry(
            "TelephonyManager", "dialCall", (VType.STRING,), VType.BOOL,
            "starts the device call if none is active",
        ),
        ApiCatalogEntry(
            "TelephonyManager", "endCall", (), VType.BOOL,
            "ends the active call; returns false when none was active",
        ),
        ApiCatalogEntry(
            "WebBrowser", "requestUrl", (VType.STRING,), VType.BOOL,
            "increments the page request tally",
        ),
        ApiCatalogEntry(
            "FileSystem", "openFile", (VType.STRING, VType.STRING), VType.BOOL,
            "increments the file open tally",
        ),
        ApiCatalogEntry(
            "AppLauncher", "launchApp", (VType.STRING,), VType.BOOL,
            "brings the named app to the foreground",
        ),
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
    """Simulator-side device: attribute table plus effect tallies."""

    attrs: VarStore = field(default_factory=VarStore)
    messages_sent: int = 0
    pages_requested: int = 0
    files_opened: int = 0
    calls_dialed: int = 0
    apps_launched: int = 0
    call_active: bool = False
    foreground_app: Optional[str] = None

    def __post_init__(self) -> None:
        for name, kind in DEVICE_ATTRS.items():
            if name not in self.attrs:
                self.attrs.set(name, kind, typed_zero(kind))


def execute_effect(entry: ApiCatalogEntry, args: Tuple[Value, ...], device: DeviceState) -> Value:
    method = entry.method
    if method == "sendTextMessage":
        device.messages_sent += 1
        return True
    if method == "setWifiEnabled":
        device.attrs.set("wifi_enabled", VType.BOOL, args[0])
        return True
    if method == "dialCall":
        device.calls_dialed += 1
        device.call_active = True
        return True
    if method == "endCall":
        was_active = device.call_active
        device.call_active = False
        return was_active
    if method == "requestUrl":
        device.pages_requested += 1
        return True
    if method == "openFile":
        device.files_opened += 1
        return True
    if method == "launchApp":
        device.apps_launched += 1
        device.foreground_app = args[0]
        return True
    raise AssertionError(f"no effect for {entry.call}")
