"""Correctness gate for benchmark replays.

Every check returns a list of problems; an empty list means the replay
passed. A replay fails when it raises, when its decisions differ from the
corpus oracle, when a digest recorded from the reference code does not
match, or when the channel log breaks the protocol. The channel log is
checked by protocol, not by bytes, so a change to the payload shape does
not trip the gate: the log must be app-initiated (``check_asymmetry``) and
re-handling its requests must rebuild the global variables.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

from dcmon.central_monitor import APP_TO_CENTRAL, GlobalState, check_asymmetry, replay_requests, snapshot
from dcmon.sim import RunResult


class Tally:
    """Replays attempted and failed, with the first few reasons."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, label: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = self.KEEP - len(self.reasons)
            self.reasons.extend(f"{label}: {p}" for p in list(problems)[:max(room, 0)])
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_digest(result: RunResult) -> str:
    """Digest of the verdict log of a replay made with latencies off."""
    return sha256(result.verdict_lines())


def requests_in(result: RunResult) -> int:
    return sum(1 for e in result.channel_entries if e.direction == APP_TO_CENTRAL)


def check_decisions(result: RunResult, expected: List[str]) -> List[str]:
    got = result.decisions()
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"{len(got)} verdicts for {len(expected)} events"]
    first = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    wrong = sum(1 for a, b in zip(got, expected) if a != b)
    return [f"{wrong} decisions differ from the oracle, first at event {first}: {got[first]} != {expected[first]}"]


def check_channel(result: RunResult) -> List[str]:
    return [f"channel protocol: {p}" for p in check_asymmetry(result.channel_entries)]


def check_rebuild(cp, result: RunResult) -> List[str]:
    """Re-handling the logged requests must rebuild the global variables.
    Device attributes are written by catalog effects, not by the channel,
    so they are taken from the replay's own final state."""
    rebuilt = replay_requests(cp, result.channel_entries, result.initial_global)
    state = GlobalState(vars=rebuilt.vars, attrs=result.global_state.attrs)
    if snapshot(state) != result.snapshot:
        return ["replaying the channel requests does not rebuild the snapshot"]
    return []


def check_digests(result: RunResult, recorded: Optional[dict]) -> List[str]:
    if recorded is None:
        return ["no recorded digest"]
    problems = []
    if verdict_digest(result) != recorded["verdicts_sha256"]:
        problems.append("verdict log differs from the recorded digest")
    if sha256(result.snapshot) != recorded["snapshot_sha256"]:
        problems.append("snapshot differs from the recorded digest")
    return problems
