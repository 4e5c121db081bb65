"""Device simulator: trace loading, the run loop, the phases it intercepts,
effect gating, rule atomicity and channel outages."""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon.catalog import CATALOG, DeviceState, execute_effect
from dcmon.central_monitor import (
    Channel,
    ChannelError,
    CentralMonitor,
    GlobalState,
    check_asymmetry,
    replay_requests,
    snapshot,
)
from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.dsl import Phase, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy, Locality, rules_for
from dcmon.lang.state import VarStore
from dcmon.lang.values import MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, VType
from dcmon.local_monitor import EventOccurrence, LocalMonitor
from dcmon.sim import (
    ALLOWED,
    BLOCKED,
    NO_RULE,
    CatalogMismatch,
    RunResult,
    TraceEvent,
    TraceFormatError,
    UnsortedTrace,
    VerdictEntry,
    _execution_order,
    check_policy_against_catalog,
    load_trace,
    parse_trace,
    run,
    run_unmonitored,
    usage_sessions,
)
from dcmon.tracegen import make_bench_trace, make_trace

from conftest import compile_src, dial, plan_rules, send, sends_every, wifi
from test_batch_plan import policy_source, rule_lists


# trace parsing

def test_empty_trace_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    assert load_trace(p) == []


def test_three_line_sms_trace():
    text = "\n".join(
        '{"t_ms": %d, "app": "Messenger", "call": "SmsManager.sendTextMessage", "args": ["21234567", "hi"]}' % t
        for t in (0, 30_000, 90_000)
    )
    trace = parse_trace(text)
    assert [e.t for e in trace] == [0, 30_000, 90_000]
    assert trace[0].namespace == "SmsManager" and trace[0].method == "sendTextMessage"


def test_decreasing_timestamps_rejected():
    text = (
        '{"t_ms": 10, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["x", "y"]}\n'
        '{"t_ms": 5, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["x", "y"]}\n'
    )
    with pytest.raises(UnsortedTrace) as err:
        parse_trace(text)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"t_ms": 1}',
        '{"t_ms": -1, "app": "A", "call": "X.y", "args": []}',
        '{"t_ms": 1, "app": "", "call": "X.y", "args": []}',
        '{"t_ms": 1, "app": "A", "call": "Xy", "args": []}',
        '{"t_ms": 1, "app": "A", "call": "X.y", "args": 3}',
        '{"t_ms": true, "app": "A", "call": "X.y", "args": []}',
        "[1, 2]",
    ],
)
def test_malformed_lines_rejected(line):
    with pytest.raises(TraceFormatError):
        parse_trace(line)


def _send_at(t):
    return f'{{"t_ms": {t}, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["x", "y"]}}'


@pytest.mark.parametrize("t", [2**63, 2**70])
def test_timestamp_beyond_int64_rejected(t):
    # the value model's timestamps are int64; a larger clock would make
    # `global.msgDay := now` fault with Overflow halfway through a rule
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_send_at(0) + "\n" + _send_at(t))
    assert err.value.line == 2


def test_largest_int64_timestamp_accepted():
    (ev,) = parse_trace(_send_at(2**63 - 1))
    assert ev.t == 2**63 - 1


SEND_LINE = '{"t_ms": 1, "app": %s, "call": "SmsManager.sendTextMessage", "args": [%s, "y"]}'


@pytest.mark.parametrize(
    "app,dest",
    [
        ('"A\\ud800"', '"x"'),  # an escaped lone high surrogate in the app
        ('"A"', '"\\udc00x"'),  # an escaped lone low surrogate in an argument
        ('"A"', '"\udc00"'),  # a raw lone surrogate in text built in memory
    ],
    ids=["escaped_app", "escaped_arg", "raw_arg"],
)
def test_string_without_utf8_encoding_rejected(app, dest):
    # such a string would reach the state snapshot, whose byte count
    # (state_size) encodes every string as UTF-8
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_send_at(0) + "\n" + SEND_LINE % (app, dest))
    assert err.value.line == 2
    assert "UTF-8" in str(err.value)


def test_escaped_unicode_accepted():
    # an escaped surrogate pair is one character, and encodes
    (ev,) = parse_trace(SEND_LINE % ('"\\u00e9"', '"\\ud83d\\ude00"'))
    assert (ev.app, ev.args) == ("\u00e9", ("\U0001f600", "y"))


def test_trace_roundtrip_through_file(tmp_path):
    from dcmon.sim import write_trace

    trace = [send(0), wifi(5, True), dial(10)]
    p = tmp_path / "t.jsonl"
    write_trace(p, trace)
    assert load_trace(p) == trace


# catalog checks

def test_unknown_api_in_trace():
    cp = compile_corpus_policy("MsgCntLmt")
    with pytest.raises(CatalogMismatch):
        run([TraceEvent(0, "A", "Camera", "takePicture", ())], cp)


def test_bad_arg_type_in_trace():
    cp = compile_corpus_policy("MsgCntLmt")
    with pytest.raises(CatalogMismatch):
        run([TraceEvent(0, "A", "SmsManager", "sendTextMessage", (1, 2))], cp)


def test_policy_pattern_type_mismatch_detected():
    src = """
    Events { ApplicationSide { e() = { WifiManager *.setWifiEnabled(string enabled) } } }
    Conditions { ApplicationSide { c = { enabled == "x" } } }
    Actions { ApplicationSide { a = { block(); } } }
    Rules { e() | c -> a; }
    """
    cp = compile_src(src)
    with pytest.raises(CatalogMismatch):
        check_policy_against_catalog(cp)


def test_policy_unknown_api_detected():
    src = """
    Events { ApplicationSide { e() = { Camera *.takePicture(...) } } }
    Conditions { ApplicationSide { c = { true } } }
    Actions { ApplicationSide { a = { block(); } } }
    Rules { e() | c -> a; }
    """
    with pytest.raises(CatalogMismatch):
        check_policy_against_catalog(compile_src(src))


# run loop

def test_501_sends_blocks_the_501st():
    cp = compile_corpus_policy("MsgCntLmt")
    trace = sends_every(MS_PER_SECOND, 501)
    res = run(trace, cp)
    decisions = res.decisions()
    assert decisions[:500] == ["Allowed"] * 500
    assert decisions[500] == "Blocked"
    assert res.verdicts[500].reason == "denySendOverQuota"


def test_device_centric_aggregation_across_apps():
    cp = compile_corpus_policy("MsgCntLmt")
    apps = [f"App{i}" for i in range(5)]
    trace = sends_every(MS_PER_SECOND, 501, apps=apps)
    res = run(trace, cp)
    assert res.decisions().count("Blocked") == 1
    assert res.decisions()[500] == "Blocked"  # the 501st combined send


def test_msg_gap_policy_blocks_at_30s_allows_at_61s():
    cp = compile_corpus_policy("MsgTimeLmt")
    res = run([send(0), send(30 * MS_PER_SECOND)], cp)
    assert res.decisions() == ["Allowed", "Blocked"]
    res = run([send(0), send(61 * MS_PER_SECOND)], cp)
    assert res.decisions() == ["Allowed", "Allowed"]


def test_effect_gating_blocked_send_leaves_no_device_effect():
    cp = compile_corpus_policy("MsgCntLmt")
    trace = sends_every(MS_PER_SECOND, 502)
    res = run(trace, cp)
    assert res.decisions().count("Blocked") == 2
    # device tally only counts executed sends
    assert res.device.messages_sent == 500
    # after occurrences exist only for executed calls: counter capped too
    assert res.global_state.vars.get("msgCount", VType.INT) == 500


def test_wifi_block_prevents_attribute_change():
    cp = compile_corpus_policy("WiFiLmt")
    res = run([wifi(14 * MS_PER_HOUR, True)], cp)
    assert res.decisions() == ["Blocked"]
    assert res.device.attrs.get("wifi_enabled", VType.BOOL) is False
    res = run([wifi(9 * MS_PER_HOUR, True)], cp)
    assert res.decisions() == ["Allowed"]
    assert res.device.attrs.get("wifi_enabled", VType.BOOL) is True


def test_unsorted_trace_rejected_by_run():
    cp = compile_corpus_policy("MsgCntLmt")
    with pytest.raises(UnsortedTrace):
        run([send(10), send(0)], cp)


def test_run_unmonitored_all_allowed_and_channel_silent():
    trace = sends_every(MS_PER_SECOND, 50) + [wifi(60 * MS_PER_SECOND, True)]
    res = run_unmonitored(trace)
    assert res.decisions() == ["Allowed"] * 51
    assert res.channel_entries == []
    again = run_unmonitored(trace)
    assert again.verdict_lines() == res.verdict_lines()


def test_verdict_log_field_names():
    import json

    cp = compile_corpus_policy("MsgCntLmt")
    res = run([send(0)], cp)
    doc = json.loads(res.verdicts[0].to_json())
    assert set(doc) == {"t_ms", "app", "call", "decision", "reason", "latency_ns"}
    assert doc["decision"] == "Allowed" and doc["reason"] == "no rule"


def test_channel_log_field_names():
    import json

    cp = compile_corpus_policy("MsgCntLmt")
    res = run([send(0)], cp)
    assert res.channel_entries
    doc = json.loads(res.channel_entries[0].to_json())
    assert set(doc) == {"direction", "seq", "t", "app_id", "rule_id", "payload"}


def test_determinism_byte_identical():
    cp = compile_corpus_policy("MsgCntLmtHr")
    trace = sends_every(20 * MS_PER_SECOND, 300)
    a = run(trace, cp)
    b = run(trace, cp)
    assert a.verdict_lines() == b.verdict_lines()
    assert a.snapshot == b.snapshot
    assert a.channel_lines() == b.channel_lines()


def test_concurrent_mode_replays_byte_identical():
    cp = compile_corpus_policy("MsgCntLmtHr")
    # five apps sharing timestamps so the grant order matters
    trace = sends_every(0, 200, apps=[f"App{i}" for i in range(5)])
    first = run(trace, cp, concurrent_same_t=True)
    replay = run(trace, cp, arrival_order=first.arrival_order)
    assert replay.verdict_lines() == first.verdict_lines()
    assert replay.snapshot == first.snapshot
    assert replay.channel_lines() == first.channel_lines()


def test_concurrent_request_log_rebuilds_snapshot():
    cp = compile_corpus_policy("MsgCntLmtHr")
    trace = sends_every(0, 120, apps=["A", "B", "C"])
    res = run(trace, cp, concurrent_same_t=True)
    rebuilt = replay_requests(cp, res.channel_entries, res.initial_global)
    assert snapshot(rebuilt) == res.snapshot


@pytest.mark.parametrize(
    "trace, expected",
    [
        (
            [send(0, "A"), send(0, "B"), send(0, "A"), send(5, "C"), send(5, "B"), send(5, "C")],
            [0, 2, 1, 3, 5, 4],
        ),
        # one group long enough that threads racing for it would interleave
        (sends_every(0, 3000, apps=[f"App{i}" for i in range(5)]), [i for a in range(5) for i in range(a, 3000, 5)]),
    ],
    ids=["two-groups", "3000-sends"],
)
def test_concurrent_schedule_runs_app_by_app(trace, expected):
    cp = compile_corpus_policy("MsgCntLmtHr")
    runs = [run(trace, cp, concurrent_same_t=True) for _ in range(3)]
    assert [r.arrival_order for r in runs] == [expected] * 3
    assert len({r.verdict_lines() for r in runs}) == 1


@pytest.mark.parametrize(
    "trace, order, accepted",
    [
        (sends_every(MS_PER_SECOND, 50), list(reversed(range(50))), False),
        (sends_every(0, 4, apps=["A", "B"]), [2, 1, 0, 3], False),
        (sends_every(0, 4, apps=["A", "B"]), [1, 0, 2, 3], True),
    ],
    ids=["clock-runs-backwards", "same-app-swapped", "other-apps-swapped"],
)
def test_arrival_order_keeps_time_and_app_order(trace, order, accepted):
    cp = compile_corpus_policy("MsgCntLmtHr")
    if accepted:
        assert run(trace, cp, arrival_order=order).arrival_order == order
    else:
        with pytest.raises(ValueError):
            run(trace, cp, arrival_order=order)


def test_isolation_local_state_per_app():
    # a per-app counter kept in local state: interleaving two apps must
    # leave each app's local state as if it ran alone
    src = """
    Events { ApplicationSide { e() = { SmsManager *.sendTextMessage(...) } } }
    Conditions { ApplicationSide { always = { true } } }
    Actions { ApplicationSide { note = { local.sent := local.sent + 1; } } }
    Rules { e() | always -> note; }
    """
    cp = compile_src(src)
    mixed = sends_every(MS_PER_SECOND, 10, apps=["A", "B"])
    res = run(mixed, cp)
    solo_a = run([e for e in mixed if e.app == "A"], cp)
    solo_b = run([e for e in mixed if e.app == "B"], cp)
    assert res.local_states["A"] == solo_a.local_states["A"]
    assert res.local_states["B"] == solo_b.local_states["B"]


def test_fail_closed_run_level():
    cp = compile_corpus_policy("MsgCntLmt")
    trace = sends_every(MS_PER_SECOND, 5) + [wifi(10 * MS_PER_SECOND, True, app="Messenger")]
    res = run(trace, cp, channel_connected=False)
    sends = res.verdicts[:5]
    assert all(v.decision == "Blocked" and v.reason == "ChannelError" for v in sends)
    # the wifi event triggers no rule of this policy and proceeds
    assert res.verdicts[5].decision == "Allowed"


def test_local_only_policy_unaffected_by_disconnected_channel():
    cp = compile_corpus_policy("WiFiLmt")
    res = run([wifi(9 * MS_PER_HOUR, True), wifi(14 * MS_PER_HOUR, True)], cp, channel_connected=False)
    assert res.decisions() == ["Allowed", "Blocked"]
    assert res.channel_entries == []


# a rule that faults leaves no write behind

STEP_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions { SIDE { always = { true } } }
Actions { SIDE { step = { NS.g := NS.g + 1; NS.q := 100 / (NS.g - 2); } } }
Rules { stepRule = sendB() | always -> step; }
"""


def test_faulting_global_rule_leaves_no_write():
    cp = compile_src(STEP_SRC.replace("SIDE", "GlobalSide").replace("NS", "global"))
    res = run(sends_every(1000, 3), cp)
    # the second and third sends set g to 2 and then divide by zero
    assert res.decisions() == ["Allowed"] * 3
    assert res.faults == [(1, "EvalFault:DivisionByZero"), (2, "EvalFault:DivisionByZero")]
    assert [res.global_state.vars.get(n, VType.INT) for n in ("g", "q")] == [1, -100]
    assert snapshot(replay_requests(cp, res.channel_entries, res.initial_global)) == res.snapshot


def test_faulting_local_rule_leaves_no_write():
    cp = compile_src(STEP_SRC.replace("SIDE", "ApplicationSide").replace("NS", "local"))
    res = run(sends_every(1000, 3), cp)
    assert res.decisions() == ["Allowed", "Blocked", "Blocked"]
    assert [v.reason for v in res.verdicts[1:]] == ["EvalError:DivisionByZero"] * 2
    local = res.local_states["Messenger"]
    assert [local.get(n, VType.INT) for n in ("g", "q")] == [1, -100]


def test_faulting_rule_drops_its_attribute_write_and_block():
    src = """
    Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
    Conditions { ApplicationSide { always = { true } } }
    Actions { ApplicationSide {
        wifiOn = { set_attr("wifi_enabled", true); }
        deny = { block(); }
        crash = { local.z := 10 / local.z; }
    } }
    Rules { denySend = sendB() | always -> wifiOn, deny, crash; }
    """
    res = run([send(0)], compile_src(src))
    assert (res.verdicts[0].decision, res.verdicts[0].reason) == ("Blocked", "EvalError:DivisionByZero")
    assert res.faults == [(0, "EvalError:DivisionByZero")]
    assert res.device.attrs.get("wifi_enabled", VType.BOOL) is False
    assert "z" not in res.local_states["Messenger"]


# a channel outage in the middle of a trace

def strictly_increasing(trace):
    out, last = [], -1
    for ev in trace:
        last = max(ev.t, last + 1)
        out.append(dataclasses.replace(ev, t=last))
    return out


def needs_global_rules(cp, ev, phase):
    # run() checks every event's arity against the catalog, which every
    # trigger matches, so each rule of the key fires
    return [r for r in plan_rules(rules_for(cp, ev.namespace, ev.method, phase)) if r.locality is Locality.NEEDS_GLOBAL]


@pytest.mark.parametrize(
    "pid, trace",
    [
        ("MsgCntLmtHr", sends_every(10 * MS_PER_SECOND, 300)),
        ("OneHrPerSittingOnly", strictly_increasing(make_trace(9, profile="long_sitting", max_events=400))),
    ],
)
def test_channel_outage_mid_trace_fails_closed(monkeypatch, pid, trace):
    cp = compile_corpus_policy(pid)
    lo, hi = trace[len(trace) // 5].t, trace[len(trace) // 2].t
    uninterrupted = run(trace, cp)

    request = Channel.request

    def flaky_request(self, app_id, rule_ids, t, appside_truth, forwarded_bindings):
        if lo <= t < hi:
            raise ChannelError("outage")
        return request(self, app_id, rule_ids, t, appside_truth, forwarded_bindings)

    monkeypatch.setattr(Channel, "request", flaky_request)
    res = run(trace, cp)

    assert not any(lo <= e.t < hi for e in res.channel_entries)
    faults = {}
    for idx, fault in res.faults:
        faults.setdefault(idx, []).append(fault)
    inside = [idx for idx, ev in enumerate(trace) if lo <= ev.t < hi]
    assert len(inside) > 50
    for idx in inside:
        before = needs_global_rules(cp, trace[idx], Phase.BEFORE)
        if before:
            verdict = res.verdicts[idx]
            assert (verdict.decision, verdict.reason) == ("Blocked", "ChannelError"), idx
        triggered = before or needs_global_rules(cp, trace[idx], Phase.AFTER)
        assert faults.get(idx, []) == ["ChannelError"] * len(triggered), idx
    first = inside[0]
    assert res.verdict_lines().splitlines()[:first] == uninterrupted.verdict_lines().splitlines()[:first]
    assert check_asymmetry(res.channel_entries) == []
    rebuilt = replay_requests(cp, res.channel_entries, res.initial_global)
    assert snapshot(GlobalState(vars=rebuilt.vars, attrs=res.global_state.attrs)) == res.snapshot


# only the phases a rule listens to are intercepted

BENCH_TRACE = make_bench_trace(per_kind=120)


def assert_intercepts_only_phases_with_rules(monkeypatch, cp, trace):
    phases = []
    intercept = LocalMonitor.intercept

    def counting_intercept(self, occ):
        phases.append(occ.phase)
        return intercept(self, occ)

    monkeypatch.setattr(LocalMonitor, "intercept", counting_intercept)
    res = run(trace, cp)
    before = sum(1 for ev in trace if rules_for(cp, ev.namespace, ev.method, Phase.BEFORE))
    after = sum(
        1 for ev, v in zip(trace, res.verdicts)
        if v.decision == ALLOWED and rules_for(cp, ev.namespace, ev.method, Phase.AFTER)
    )
    assert len(phases) == before + after
    assert phases.count(Phase.BEFORE) == before


@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_intercepts_only_phases_with_rules(monkeypatch, pid):
    assert_intercepts_only_phases_with_rules(monkeypatch, compile_corpus_policy(pid), BENCH_TRACE)


def test_event_without_rules_is_not_intercepted(monkeypatch):
    cp = compile_src(
        """
        Events { ApplicationSide {
            sendB() = { SmsManager *.sendTextMessage(...) }
            wifiB() = { WifiManager *.setWifiEnabled(boolean on) }
        } }
        Conditions { ApplicationSide { always = { true } } }
        Actions { ApplicationSide { note = { local.n := local.n + 1; } } }
        Rules { sendB() | always -> note; }
        """
    )
    assert not rules_for(cp, "WifiManager", "setWifiEnabled", Phase.BEFORE)
    trace = [send(0), wifi(1, False), send(2), wifi(3, True)]
    assert_intercepts_only_phases_with_rules(monkeypatch, cp, trace)


def intercept_every_phase(trace, cp, concurrent_same_t=False) -> RunResult:
    """run() as it was before it skipped phases without rules: both phases
    of every call are intercepted. The reference for run()."""
    device = DeviceState()
    gs = GlobalState(vars=VarStore(), attrs=device.attrs)
    initial = gs.copy()
    log = []
    channel = Channel(CentralMonitor(cp, gs, log))
    monitors = {app: LocalMonitor(app, app, cp, channel, device.attrs) for app in sorted({ev.app for ev in trace})}
    verdicts = [None] * len(trace)
    faults = []
    order = list(_execution_order(trace, concurrent_same_t, None))
    for idx in order:
        ev = trace[idx]
        monitor = monitors[ev.app]
        before = monitor.intercept(EventOccurrence(ev.namespace, ev.method, Phase.BEFORE, ev.args, None, ev.t))
        event_faults = list(before.faults)
        if before.blocked:
            decision, reason = BLOCKED, before.reason or NO_RULE
        else:
            ret = execute_effect(CATALOG[(ev.namespace, ev.method)], ev.args, device)
            after = monitor.intercept(EventOccurrence(ev.namespace, ev.method, Phase.AFTER, ev.args, ret, ev.t))
            event_faults.extend(after.faults)
            decision, reason = ALLOWED, NO_RULE
        verdicts[idx] = VerdictEntry(ev.t, ev.app, ev.call, decision, reason, 0)
        faults.extend((idx, f) for f in event_faults)
    local_states = {app: m.local for app, m in monitors.items()}
    return RunResult(verdicts, snapshot(gs), log, gs, initial, device, local_states, order, sorted(faults))


def assert_same_as_every_phase(trace, cp, concurrent_same_t=False):
    got = run(trace, cp, concurrent_same_t=concurrent_same_t)
    want = intercept_every_phase(trace, cp, concurrent_same_t)
    assert got.verdict_lines() == want.verdict_lines()
    assert got.snapshot == want.snapshot
    assert got.channel_lines() == want.channel_lines()
    assert got.faults == want.faults
    assert got.local_states == want.local_states
    assert got.arrival_order == want.arrival_order


@pytest.mark.parametrize("pid", CORPUS_IDS)
@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_corpus_matches_intercepting_every_phase(pid, concurrent_same_t):
    cp = compile_corpus_policy(pid)
    for seed in range(60_000, 60_010):
        assert_same_as_every_phase(make_trace(seed, max_events=400), cp, concurrent_same_t)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000), st.booleans())
def test_random_policy_matches_intercepting_every_phase(rule_list, seed, concurrent_same_t):
    cp = validate_policy(parse_policy(policy_source(rule_list)))
    assume(isinstance(cp, CompiledPolicy))
    check_policy_against_catalog(cp)
    assert_same_as_every_phase(make_trace(seed, max_apps=2, max_events=80), cp, concurrent_same_t)


# sittings

def test_usage_sessions_gap_partition():
    trace = [send(0), send(10 * MS_PER_MINUTE), send(70 * MS_PER_MINUTE)]
    assert usage_sessions(trace, 15 * MS_PER_MINUTE) == [
        (0, 10 * MS_PER_MINUTE),
        (70 * MS_PER_MINUTE, 70 * MS_PER_MINUTE),
    ]


def test_usage_sessions_empty():
    assert usage_sessions([], 15 * MS_PER_MINUTE) == []


def test_usage_sessions_continuous_two_hours_single_sitting():
    trace = sends_every(MS_PER_MINUTE, 121)
    assert usage_sessions(trace, 15 * MS_PER_MINUTE) == [(0, 120 * MS_PER_MINUTE)]


def test_one_hour_sitting_policy_blocks_then_releases():
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    trace = sends_every(MS_PER_MINUTE, 121)  # continuous use for 2h
    res = run(trace, cp)
    decisions = res.decisions()
    assert decisions[:60] == ["Allowed"] * 60
    assert decisions[60:] == ["Blocked"] * 61  # from minute 60 onward
    # after 15 idle minutes the lock lifts
    resumed = trace + [send(120 * MS_PER_MINUTE + 15 * MS_PER_MINUTE)]
    res2 = run(resumed, cp)
    assert res2.decisions()[-1] == "Allowed"
