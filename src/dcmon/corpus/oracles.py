"""Ground-truth decision procedures for the shipped policies.

Each oracle scans the raw trace directly (counting, windowing, interval
overlap), with no monitor, channel or rule machinery involved, so engine
runs can be checked against an independent implementation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import SimConfig
from ..lang.values import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE
from ..sim import ALLOWED, BLOCKED, TraceEvent

GAME_PREFIX = "Game"


def _is_call(ev: TraceEvent, namespace: str, method: str) -> bool:
    return ev.api.namespace == namespace and ev.api.method == method


def _midnight(t: int) -> int:
    return (t // MS_PER_DAY) * MS_PER_DAY


def phone_ext_blk(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    out = []
    for ev in trace:
        if _is_call(ev, "TelephonyManager", "dialCall"):
            number = ev.args[0]
            foreign = number.startswith("+") and not number.startswith(config.home_country_code)
            out.append(BLOCKED if foreign else ALLOWED)
        else:
            out.append(ALLOWED)
    return out


def url_blk_req(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    out = []
    for ev in trace:
        if _is_call(ev, "WebBrowser", "requestUrl"):
            url = ev.args[0]
            out.append(BLOCKED if any(frag in url for frag in config.url_blocklist) else ALLOWED)
        else:
            out.append(ALLOWED)
    return out


def wifi_lmt(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    def restricted(t: int) -> bool:
        hour = (t % MS_PER_DAY) // MS_PER_HOUR
        if config.work_hours is not None:
            start, end = config.work_hours
            return start <= hour < end
        return hour > 1 and hour >= 12

    out = []
    for ev in trace:
        if _is_call(ev, "WifiManager", "setWifiEnabled") and ev.args[0] is True and restricted(ev.t):
            out.append(BLOCKED)
        else:
            out.append(ALLOWED)
    return out


def file_access_lmt(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    out = []
    for ev in trace:
        decision = ALLOWED
        if _is_call(ev, "FileSystem", "openFile"):
            path = ev.args[0]
            for prefix in config.protected_paths:
                if path.startswith(prefix) and ev.app not in config.authorized_apps.get(prefix, ()):
                    decision = BLOCKED
                    break
        out.append(decision)
    return out


def _overlap_with_day(start: int, end: int, day_start: int) -> int:
    return max(0, end - max(start, day_start))


def phone_time_lim(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    completed: List[Tuple[int, int]] = []
    active_start: Optional[int] = None
    out = []
    for ev in trace:
        if _is_call(ev, "TelephonyManager", "dialCall"):
            day_start = _midnight(ev.t)
            used = sum(_overlap_with_day(s, e, day_start) for s, e in completed)
            if active_start is not None:
                used += _overlap_with_day(active_start, ev.t, day_start)
            if used >= 4 * MS_PER_HOUR:
                out.append(BLOCKED)
            else:
                out.append(ALLOWED)
                if active_start is None:
                    active_start = ev.t
        elif _is_call(ev, "TelephonyManager", "endCall"):
            out.append(ALLOWED)
            if active_start is not None:
                completed.append((active_start, ev.t))
                active_start = None
        else:
            out.append(ALLOWED)
    return out


def game_play_lmt(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    completed: List[Tuple[int, int]] = []
    fg_since: Optional[int] = None
    out = []
    for ev in trace:
        if not _is_call(ev, "AppLauncher", "launchApp"):
            out.append(ALLOWED)
            continue
        target = ev.args[0]
        day_start = _midnight(ev.t)
        used = sum(_overlap_with_day(s, e, day_start) for s, e in completed)
        if fg_since is not None:
            used += _overlap_with_day(fg_since, ev.t, day_start)
        is_game = target.startswith(GAME_PREFIX)
        if is_game and used >= 3 * MS_PER_HOUR:
            out.append(BLOCKED)
            continue  # launch denied: foreground unchanged
        out.append(ALLOWED)
        if is_game:
            if fg_since is None:
                fg_since = ev.t
        else:
            if fg_since is not None:
                completed.append((fg_since, ev.t))
                fg_since = None
    return out


def one_hr_per_sitting(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    out = []
    sitting_start: Optional[int] = None
    last_t: Optional[int] = None
    for ev in trace:
        if sitting_start is None or ev.t - last_t >= config.idle_threshold_ms:
            sitting_start = ev.t
        last_t = ev.t
        out.append(BLOCKED if ev.t - sitting_start >= MS_PER_HOUR else ALLOWED)
    return out


def msg_time_lmt(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    anchor_attempts = config.msg_gap_anchor == "attempt"
    last: Optional[int] = None
    out = []
    for ev in trace:
        if not _is_call(ev, "SmsManager", "sendTextMessage"):
            out.append(ALLOWED)
            continue
        blocked = last is not None and ev.t - last < MS_PER_MINUTE
        out.append(BLOCKED if blocked else ALLOWED)
        if anchor_attempts or not blocked:
            last = ev.t
    return out


def msg_cnt_lmt(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    count = 0
    day: Optional[int] = None
    out = []
    for ev in trace:
        if not _is_call(ev, "SmsManager", "sendTextMessage"):
            out.append(ALLOWED)
            continue
        ev_day = ev.t // MS_PER_DAY
        if day != ev_day:
            day = ev_day
            count = 0
        if count >= 500:
            out.append(BLOCKED)
        else:
            out.append(ALLOWED)
            count += 1
    return out


def msg_cnt_lmt_hr(trace: List[TraceEvent], config: SimConfig) -> List[str]:
    sent: List[int] = []
    out = []
    for ev in trace:
        if not _is_call(ev, "SmsManager", "sendTextMessage"):
            out.append(ALLOWED)
            continue
        in_window = sum(1 for s in sent if ev.t - s <= MS_PER_HOUR)
        if in_window >= 100:
            out.append(BLOCKED)
        else:
            out.append(ALLOWED)
            sent.append(ev.t)
    return out
