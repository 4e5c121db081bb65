"""Seeded random trace generation.

Profiles skew the event mix so that every shipped policy gets exercised on
both sides of its limit: send storms push the daily and hourly message
quotas, long sittings cross the one-hour mark, call marathons burn the
four-hour budget, and game days accumulate play time. Timestamps stay
within a bounded number of simulated days and are always nondecreasing.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .lang.values import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND
from .sim import TraceEvent

APP_POOL = ("Messenger", "Maps", "StockControl", "GameBlast", "GamePuzzle")

_NUMBERS = ("+35621123456", "+35699887766", "+3912345678", "+4479000111", "21234567", "99887766")
_URLS = (
    "news.example/today",
    "mail.example/inbox",
    "casino.example/spin",
    "sports.example/bet/gambling",
    "wiki.example/article",
)
_PATHS = ("/work/confidential/prices.db", "/work/confidential/orders/today.csv", "/tmp/cache.bin", "/home/user/notes.txt")
_MODES = ("r", "w")
_TARGETS = ("GameBlast", "GamePuzzle", "Maps", "Messenger", "StockControl")

PROFILES = ("mixed", "send_storm", "long_sitting", "call_heavy", "game_day", "multi_day")


def _event(rng: random.Random, t: int, app: str, kind: Optional[str] = None) -> TraceEvent:
    kind = kind or rng.choices(
        ("send", "wifi", "dial", "end", "url", "file", "launch"),
        weights=(30, 10, 10, 8, 14, 14, 14),
    )[0]
    if kind == "send":
        return TraceEvent(t, app, "SmsManager", "sendTextMessage", (rng.choice(_NUMBERS), "hi"))
    if kind == "wifi":
        return TraceEvent(t, app, "WifiManager", "setWifiEnabled", (rng.random() < 0.7,))
    if kind == "dial":
        return TraceEvent(t, app, "TelephonyManager", "dialCall", (rng.choice(_NUMBERS),))
    if kind == "end":
        return TraceEvent(t, app, "TelephonyManager", "endCall", ())
    if kind == "url":
        return TraceEvent(t, app, "WebBrowser", "requestUrl", (rng.choice(_URLS),))
    if kind == "file":
        return TraceEvent(t, app, "FileSystem", "openFile", (rng.choice(_PATHS), rng.choice(_MODES)))
    return TraceEvent(t, app, "AppLauncher", "launchApp", (rng.choice(_TARGETS),))


def _gap(rng: random.Random, profile: str) -> int:
    if profile == "send_storm":
        return rng.choice((0, 200, MS_PER_SECOND, 5 * MS_PER_SECOND, 20 * MS_PER_SECOND))
    if profile == "long_sitting":
        return rng.choice((10 * MS_PER_SECOND, MS_PER_MINUTE, 3 * MS_PER_MINUTE))
    if profile == "call_heavy":
        return rng.choice((MS_PER_MINUTE, 20 * MS_PER_MINUTE, MS_PER_HOUR, 2 * MS_PER_HOUR))
    if profile == "game_day":
        return rng.choice((5 * MS_PER_MINUTE, 25 * MS_PER_MINUTE, 50 * MS_PER_MINUTE))
    if profile == "multi_day":
        return rng.choice((MS_PER_MINUTE, MS_PER_HOUR, 10 * MS_PER_HOUR, MS_PER_DAY + 5))
    # mixed: everything from bursts to sitting-breaking idles and day hops
    return rng.choice(
        (0, 500, 2 * MS_PER_SECOND, 30 * MS_PER_SECOND, 59 * MS_PER_SECOND, 61 * MS_PER_SECOND,
         5 * MS_PER_MINUTE, 14 * MS_PER_MINUTE, 16 * MS_PER_MINUTE, 2 * MS_PER_HOUR, 26 * MS_PER_HOUR)
    )


def _kind(rng: random.Random, profile: str) -> Optional[str]:
    if profile == "send_storm" and rng.random() < 0.8:
        return "send"
    if profile == "call_heavy" and rng.random() < 0.7:
        return rng.choice(("dial", "end", "dial"))
    if profile == "game_day" and rng.random() < 0.7:
        return "launch"
    return None


def make_bench_trace(per_kind: int = 200, start_hour: int = 8) -> List[TraceEvent]:
    """Deterministic interleaved trace exercising every catalog call.

    Events are spaced so that none of the shipped rate policies block:
    consecutive sends sit over a minute apart, wifi toggles stay in the
    morning, calls are short, and game play stays under its budget. Suited
    to comparing monitored against unmonitored latencies per policy.
    """
    if per_kind < 0:
        raise ValueError(f"per_kind must be nonnegative, got {per_kind}")
    kinds = ("send", "wifi", "dial", "end", "url", "file", "launch")
    t = start_hour * MS_PER_HOUR
    events: List[TraceEvent] = []
    for i in range(per_kind):
        app = APP_POOL[i % len(APP_POOL)]
        for kind in kinds:
            if kind == "send":
                events.append(TraceEvent(t, app, "SmsManager", "sendTextMessage", ("21234567", "ping")))
            elif kind == "wifi":
                events.append(TraceEvent(t, app, "WifiManager", "setWifiEnabled", (i % 2 == 0,)))
            elif kind == "dial":
                events.append(TraceEvent(t, app, "TelephonyManager", "dialCall", ("21234567",)))
            elif kind == "end":
                events.append(TraceEvent(t, app, "TelephonyManager", "endCall", ()))
            elif kind == "url":
                events.append(TraceEvent(t, app, "WebBrowser", "requestUrl", ("news.example/today",)))
            elif kind == "file":
                events.append(TraceEvent(t, app, "FileSystem", "openFile", ("/home/user/notes.txt", "r")))
            else:
                events.append(TraceEvent(t, app, "AppLauncher", "launchApp", ("Maps" if i % 2 else "GameBlast",)))
            t += 9 * MS_PER_SECOND
    return events


def make_trace(
    seed: int,
    *,
    max_apps: int = 5,
    max_events: int = 2000,
    max_days: int = 7,
    profile: Optional[str] = None,
) -> List[TraceEvent]:
    if not 1 <= max_apps <= len(APP_POOL):
        raise ValueError(f"max_apps must be between 1 and {len(APP_POOL)}, got {max_apps}")
    if max_events < 0 or max_days < 0:
        raise ValueError(f"max_events and max_days must be nonnegative, got {max_events} and {max_days}")
    if max_days == 0:
        raise ValueError("max_days must be positive, got 0: a horizon of 0 days holds no time")
    rng = random.Random(seed)
    if profile is None:
        profile = rng.choices(PROFILES, weights=(45, 15, 10, 10, 10, 10))[0]
    apps = list(APP_POOL[: rng.randint(1, max_apps)])
    lo, hi = rng.choice(((0, 60), (50, 400), (300, max_events)))
    count = rng.randint(min(lo, max_events), min(hi, max_events))
    horizon = max_days * MS_PER_DAY - 1
    # the first event falls inside the horizon, so a positive count never
    # gives an empty trace
    t = rng.randint(0, min(2 * MS_PER_DAY, horizon))
    events: List[TraceEvent] = []
    for _ in range(count):
        if t > horizon:
            break
        events.append(_event(rng, t, rng.choice(apps), _kind(rng, profile)))
        t += _gap(rng, profile)
    return events
