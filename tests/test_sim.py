"""Device simulator: trace loading, the run loop, effect gating."""

import pytest

from dcmon.central_monitor import replay_requests, snapshot
from dcmon.corpus import compile_corpus_policy
from dcmon.lang.values import MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, VType
from dcmon.sim import (
    CatalogMismatch,
    TraceEvent,
    TraceFormatError,
    UnsortedTrace,
    check_policy_against_catalog,
    load_trace,
    parse_trace,
    run,
    run_unmonitored,
    usage_sessions,
)

from conftest import compile_src, dial, send, sends_every, wifi


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
