"""Seeded workloads for the dcmon benchmark.

A workload is a set of jobs, each one corpus policy replayed over one
generated trace. Every trace has a fixed event count, and every choice in
it (call kind, argument, app, gap) is dealt from a deck holding each option
equally often, so the mix of calls and of gaps is the same for every seed;
the seed only shuffles them. The counts the benchmark reports (channel
requests per event, final state bytes) and the shape of the latency
distribution therefore move little from seed to seed, while the decisions
still differ.

The three workloads split the ten corpus policies between them, each
policy in exactly one. Concurrent mode (``concurrent_same_t``) is not
measured: its worker threads hand over through the host's scheduler, and on
a shared host that made the replay time of the same code spread by 16%
from run to run.

Traces are plain JSON documents in the program's JSONL trace format. The
benchmark writes them to disk and the program reads them with
``load_trace``, so the program receives nothing but the trace and the
policies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

SECOND = 1_000
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR

APPS = ("Messenger", "Maps", "StockControl", "GameBlast", "GamePuzzle")
NUMBERS = ("+35621123456", "+35699887766", "+3912345678", "+4479000111", "21234567", "99887766")
URLS = (
    "news.example/today",
    "mail.example/inbox",
    "casino.example/spin",
    "sports.example/bet/gambling",
    "wiki.example/article",
)
PATHS = ("/work/confidential/prices.db", "/work/confidential/orders/today.csv", "/tmp/cache.bin", "/home/user/notes.txt")
TARGETS = ("GameBlast", "GamePuzzle", "Maps", "Messenger", "StockControl")
KINDS = ("send", "wifi", "dial", "end", "url", "file", "launch")
WIFI_STATES = (True,) * 7 + (False,) * 3
MODES = ("r", "w")

Event = dict


class Dealer:
    """Deals from one shuffled deck per use, refilled when empty, so over
    a trace each option of a use comes up equally often."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._decks: Dict[str, list] = {}

    def __call__(self, use: str, options: tuple):
        deck = self._decks.get(use)
        if not deck:
            deck = self._decks[use] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()


def _call(deal: Dealer, kind: str) -> Tuple[str, list]:
    if kind == "send":
        return "SmsManager.sendTextMessage", [deal("send", NUMBERS), "hi"]
    if kind == "wifi":
        return "WifiManager.setWifiEnabled", [deal("wifi", WIFI_STATES)]
    if kind == "dial":
        return "TelephonyManager.dialCall", [deal("dial", NUMBERS)]
    if kind == "end":
        return "TelephonyManager.endCall", []
    if kind == "url":
        return "WebBrowser.requestUrl", [deal("url", URLS)]
    if kind == "file":
        return "FileSystem.openFile", [deal("path", PATHS), deal("mode", MODES)]
    if kind == "launch":
        return "AppLauncher.launchApp", [deal("launch", TARGETS)]
    raise ValueError(f"unknown call kind {kind!r}")


def _event(deal: Dealer, t: int, app: str, kind: str) -> Event:
    call, args = _call(deal, kind)
    return {"t_ms": t, "app": app, "call": call, "args": args}


def _timeline(rng: random.Random, kinds: tuple, count: int, gaps: tuple) -> List[Event]:
    """`count` calls dealt from `kinds`, from apps dealt from APPS, spaced
    by gaps dealt from `gaps`, starting at a seeded time of one of the first
    two days so hour-of-day and day-boundary rules see both sides."""
    deal = Dealer(rng)
    t = rng.randrange(0, 2 * DAY)
    events = []
    for _ in range(count):
        events.append(_event(deal, t, deal("app", APPS), deal("kind", kinds)))
        t += deal("gap", gaps)
    return events


# Gap tables. Each is chosen so the policies that read it meet both sides
# of their limits within the trace.

# every kind of idle, from bursts to sitting-breaking pauses and day hops
MIXED_GAPS = (0, 500, 2 * SECOND, 30 * SECOND, 59 * SECOND, 61 * SECOND, 5 * MINUTE,
              14 * MINUTE, 16 * MINUTE, 2 * HOUR, 26 * HOUR)
# continuous use with an idle of at least 15 minutes about one gap in 40,
# so sittings both end early and run past the hour
SITTING_GAPS = (10 * SECOND,) * 13 + (MINUTE,) * 13 + (3 * MINUTE,) * 13 + (20 * MINUTE,)
# calls long enough that some days pass four hours
CALL_GAPS = (MINUTE, 20 * MINUTE, HOUR, 2 * HOUR)
# game sessions long enough that some days pass three hours
GAME_GAPS = (5 * MINUTE, 25 * MINUTE, 50 * MINUTE)
# sends on each storm day: 500 pass the daily limit, 250 are refused
SENDS_PER_STORM_DAY = 750
# about 140 sends an hour, so the sliding-hour list stays near its cap of 100
HOURLY_STORM_GAPS = (0, 5 * SECOND, 10 * SECOND, 20 * SECOND, 30 * SECOND, 40 * SECOND, 50 * SECOND)
# sends either side of the one-minute gap
GAP_STORM_GAPS = (5 * SECOND, 30 * SECOND, 59 * SECOND, 60 * SECOND, 61 * SECOND, 90 * SECOND, 3 * MINUTE)


def mixed(rng: random.Random, count: int) -> List[Event]:
    """All seven call kinds, five apps, mixed idles."""
    return _timeline(rng, KINDS, count, MIXED_GAPS)


def sitting(rng: random.Random, count: int) -> List[Event]:
    """All seven call kinds in long sittings broken by rare idles."""
    return _timeline(rng, KINDS, count, SITTING_GAPS)


def calls(rng: random.Random, count: int) -> List[Event]:
    """Dials and hang-ups only, three dials to two hang-ups."""
    return _timeline(rng, ("dial", "end", "dial", "end", "dial"), count, CALL_GAPS)


def launches(rng: random.Random, count: int) -> List[Event]:
    """App launches only, games and other apps."""
    return _timeline(rng, ("launch",), count, GAME_GAPS)


def daily_storm(rng: random.Random, count: int) -> List[Event]:
    """The same number of sends on each of a run of days, at seeded times
    between 06:00 and 22:00, so every day crosses the daily limit by the
    same margin whatever the seed."""
    deal = Dealer(rng)
    days = max(1, -(-count // SENDS_PER_STORM_DAY))
    first_day = rng.randrange(2)
    events = []
    for d in range(days):
        base = (first_day + d) * DAY
        sends = count // days + (1 if d < count % days else 0)
        for t in sorted(rng.randrange(base + 6 * HOUR, base + 22 * HOUR) for _ in range(sends)):
            events.append(_event(deal, t, deal("app", APPS), "send"))
    return events


def hourly_storm(rng: random.Random, count: int) -> List[Event]:
    return _timeline(rng, ("send",), count, HOURLY_STORM_GAPS)


def gap_storm(rng: random.Random, count: int) -> List[Event]:
    return _timeline(rng, ("send",), count, GAP_STORM_GAPS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (trace name, generator, event count); counts never depend on the seed
    traces: Tuple[Tuple[str, Callable[[random.Random, int], List[Event]], int], ...]
    # (policy id, trace name), replayed in this order within a pass
    jobs: Tuple[Tuple[str, str], ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="local_sparse",
            why=(
                "LocalOnly policies that each instrument 1 call in 7: dispatch and the path for "
                "uninstrumented calls dominate and the channel stays idle"
            ),
            traces=(("mixed", mixed, 7000),),
            jobs=(("PhoneExtBlk", "mixed"), ("URLBlkReq", "mixed"), ("WiFiLmt", "mixed"), ("FileAccessLmt", "mixed")),
        ),
        Workload(
            name="sitting_dense",
            why=(
                "every call instrumented, 3 to 6 NeedsGlobal rules per occurrence, mostly read-only "
                "guards that come back false: channel and central evaluation dominate"
            ),
            traces=(("sitting", sitting, 2800), ("calls", calls, 2800), ("launches", launches, 2800)),
            jobs=(("OneHrPerSittingOnly", "sitting"), ("PhoneTimeLim", "calls"), ("GamePlayLmt", "launches")),
        ),
        Workload(
            name="quota_storm",
            why=(
                "send storms on both sides of each limit: central state written on every allowed send, "
                "a counter and a ts_list of about 100 elements, beside count_within reads"
            ),
            traces=(("daily", daily_storm, 3000), ("hourly", hourly_storm, 3000), ("gap", gap_storm, 3000)),
            jobs=(("MsgCntLmt", "daily"), ("MsgCntLmtHr", "hourly"), ("MsgTimeLmt", "gap")),
        ),
    )
}


def generate(workload: Workload, seed: int, scale: float = 1.0) -> Dict[str, List[Event]]:
    """The workload's traces for `seed`. Each trace draws from its own
    stream, so adding a trace to a workload leaves the others unchanged.
    `scale` shrinks the traces for quick self-tests only."""
    out = {}
    for name, gen, count in workload.traces:
        n = max(2, int(count * scale)) // 2 * 2
        out[name] = gen(random.Random(f"{workload.name}/{name}/{seed}"), n)
    return out


def write_jsonl(path: Path, events: List[Event]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True, separators=(",", ":")) + "\n")
