"""Run configuration.

A single JSON document drives everything the shipped policies leave open:
the home dialing prefix, the URL blocklist, protected path prefixes with
their authorized apps, the idle gap that ends a sitting, an optional
work-hours window for the wifi policy, and which send attempts anchor the
message-gap policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from .lang.values import MS_PER_SECOND


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class SimConfig:
    home_country_code: str = "+356"
    url_blocklist: Tuple[str, ...] = ("casino", "gambling", "adult.example")
    protected_paths: Tuple[str, ...] = ("/work/confidential",)
    authorized_apps: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {"/work/confidential": ("StockControl",)}
    )
    idle_threshold_ms: int = 900_000
    # None keeps the shipped wifi predicate (afternoon per the device
    # clock); (start_hour, end_hour) switches to an explicit window.
    work_hours: Optional[Tuple[int, int]] = None
    # "allowed": only sends that went through anchor the one-minute gap;
    # "attempt": blocked tries re-arm it too.
    msg_gap_anchor: str = "allowed"

    def __post_init__(self):
        if self.msg_gap_anchor not in ("allowed", "attempt"):
            raise ConfigError(f"msg_gap_anchor must be 'allowed' or 'attempt', not {self.msg_gap_anchor!r}")
        if self.idle_threshold_ms <= 0:
            raise ConfigError("idle_threshold_ms must be positive")
        if self.idle_threshold_ms % MS_PER_SECOND:
            # a policy writes the threshold with seconds() or minutes()
            raise ConfigError(f"idle_threshold_ms must be a whole number of seconds, not {self.idle_threshold_ms}")
        if self.work_hours is not None:
            start, end = self.work_hours
            if not (0 <= start < 24 and 0 < end <= 24 and start < end):
                raise ConfigError(f"work_hours {self.work_hours!r} is not a valid (start, end) hour window")
        for prefix in self.authorized_apps:
            if prefix not in self.protected_paths:
                raise ConfigError(f"authorized_apps names unprotected prefix {prefix!r}")

    def to_dict(self) -> dict:
        return {
            "home_country_code": self.home_country_code,
            "url_blocklist": list(self.url_blocklist),
            "protected_paths": list(self.protected_paths),
            "authorized_apps": {k: list(v) for k, v in sorted(self.authorized_apps.items())},
            "idle_threshold_ms": self.idle_threshold_ms,
            "work_hours": list(self.work_hours) if self.work_hours is not None else None,
            "msg_gap_anchor": self.msg_gap_anchor,
        }


_FIELDS = {f.name for f in fields(SimConfig)}


def config_from_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - _FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    if "home_country_code" in doc:
        kwargs["home_country_code"] = _expect(doc, "home_country_code", str)
    if "url_blocklist" in doc:
        kwargs["url_blocklist"] = tuple(_expect_list(doc, "url_blocklist"))
    if "protected_paths" in doc:
        kwargs["protected_paths"] = tuple(_expect_list(doc, "protected_paths"))
    if "authorized_apps" in doc:
        raw = doc["authorized_apps"]
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, list) and all(isinstance(a, str) for a in v)
            for k, v in raw.items()
        ):
            raise ConfigError("authorized_apps must map path prefixes to lists of app ids")
        kwargs["authorized_apps"] = {k: tuple(v) for k, v in raw.items()}
    if "idle_threshold_ms" in doc:
        value = doc["idle_threshold_ms"]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError("idle_threshold_ms must be an integer")
        kwargs["idle_threshold_ms"] = value
    if "work_hours" in doc and doc["work_hours"] is not None:
        raw = doc["work_hours"]
        if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(h, int) and not isinstance(h, bool) for h in raw)):
            raise ConfigError("work_hours must be null or [start_hour, end_hour]")
        kwargs["work_hours"] = (raw[0], raw[1])
    if "msg_gap_anchor" in doc:
        kwargs["msg_gap_anchor"] = _expect(doc, "msg_gap_anchor", str)
    return SimConfig(**kwargs)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"invalid JSON in config: {ex}") from ex
    return config_from_dict(doc)


def _expect(doc: dict, key: str, ty) :
    value = doc[key]
    if not isinstance(value, ty):
        raise ConfigError(f"{key} must be {ty.__name__}")
    return value


def _expect_list(doc: dict, key: str):
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{key} must be a list of strings")
    return value


DEFAULT_CONFIG = SimConfig()
