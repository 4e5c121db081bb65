"""Local and central monitors plus the request/reply channel."""

import json
import random

import pytest

from dcmon.central_monitor import (
    APP_TO_CENTRAL,
    CENTRAL_TO_APP,
    Channel,
    ChannelLogEntry,
    CentralMonitor,
    GlobalState,
    MonitorRequest,
    check_asymmetry,
    replay_requests,
    snapshot,
    state_size,
)
from dcmon.dsl import Phase
from dcmon.local_monitor import (
    ArityMismatch,
    EventOccurrence,
    LocalMonitor,
    bind_params,
)
from dcmon.lang.state import VarStore
from dcmon.lang.values import MS_PER_HOUR, VType

from conftest import compile_src


def occ(namespace, method, phase, args=(), ret=None, t=0, app="Messenger"):
    return EventOccurrence(
        app_id=app, app_name=app, namespace=namespace, method=method,
        phase=phase, args=tuple(args), return_value=ret, t=t,
    )


def send_before(t=0, app="Messenger"):
    return occ("SmsManager", "sendTextMessage", Phase.BEFORE, ("21234567", "hi"), t=t, app=app)


def send_after(t=0, ret=True, app="Messenger"):
    return occ("SmsManager", "sendTextMessage", Phase.AFTER, ("21234567", "hi"), ret=ret, t=t, app=app)


@pytest.fixture()
def quota_setup(msg_quota_policy):
    gs = GlobalState()
    central = CentralMonitor(msg_quota_policy, gs)
    channel = Channel(central)
    monitor = LocalMonitor("Messenger", "Messenger", msg_quota_policy, channel, gs.attrs)
    return msg_quota_policy, gs, central, channel, monitor


# bind_params

def test_bind_return_value(msg_quota_policy):
    decl = msg_quota_policy.events[1]
    assert bind_params(send_after(ret=True), decl) == {"sent": True}


def test_bind_positional(wifi_listing_policy):
    decl = wifi_listing_policy.events[0]
    o = occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,))
    assert bind_params(o, decl) == {"enabled": True}


def test_bind_wildcard_no_params(msg_quota_policy):
    decl = msg_quota_policy.events[0]
    o = occ("SmsManager", "sendTextMessage", Phase.BEFORE, (1, 2, 3))
    assert bind_params(o, decl) == {}


def test_bind_arity_mismatch(wifi_listing_policy):
    decl = wifi_listing_policy.events[0]
    o = occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True, False))
    with pytest.raises(ArityMismatch):
        bind_params(o, decl)


# handle_request

def test_quota_reached_reply_instructs_block(quota_setup):
    cp, gs, central, channel, _ = quota_setup
    gs.vars.set("msgCount", VType.INT, 500)
    reply = channel.request("Messenger", (0,), 0, {}, {})
    assert reply.guard_results == (True,)
    assert reply.appside_actions_to_run == ((0,),)  # blockRequest
    assert reply.faults == (None,)
    assert cp.actions[0].name == "blockRequest"


def test_increment_request_mutates_state(quota_setup):
    cp, gs, central, channel, _ = quota_setup
    gs.vars.set("msgCount", VType.INT, 41)
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    reply = channel.request("Messenger", (1,), 0, {successful_id: True}, {})
    assert reply.guard_results == (True,)
    assert reply.appside_actions_to_run == ((),)
    assert reply.faults == (None,)
    assert gs.vars.get("msgCount", VType.INT) == 42


def test_false_guard_leaves_state_unchanged(quota_setup):
    cp, gs, central, channel, _ = quota_setup
    before = snapshot(gs)
    reply = channel.request("Messenger", (0,), 0, {}, {})  # count 0 < 500
    assert reply.guard_results == (False,)
    assert reply.appside_actions_to_run == ((),)
    assert reply.faults == (None,)
    assert snapshot(gs) == before


GSTEP_BATCH_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions { GlobalSide { always = { true } } }
Actions { GlobalSide {
    gstep = { global.g := global.g + 1; global.q := 100 / (global.g - 2); }
    look = { global.seen := global.g; }
} }
Rules {
    step = sendB() | always -> gstep;
    copy = sendB() | always -> look;
}
"""


def test_central_fault_rolls_back_before_the_next_rule_of_the_batch():
    cp = compile_src(GSTEP_BATCH_SRC)
    gs = GlobalState()
    gs.vars.set("g", VType.INT, 1)
    gs.vars.set("q", VType.INT, -100)
    channel = Channel(CentralMonitor(cp, gs))
    reply = channel.request("Messenger", (0, 1), 0, {}, {})
    assert reply.faults == ("EvalFault:DivisionByZero", None)
    assert reply.guard_results == (False, True)
    # `copy` reads g as it was before `step`, not the 2 that step wrote
    assert [gs.vars.get(n, VType.INT) for n in ("g", "q", "seen")] == [1, -100, 1]


def test_unknown_rule_fault(quota_setup):
    _, _, central, channel, _ = quota_setup
    reply = channel.request("Messenger", (99,), 0, {}, {})
    assert reply.faults == ("UnknownRule",)
    assert reply.guard_results == (False,)
    assert reply.appside_actions_to_run == ((),)


def test_stale_truth_map_fault(quota_setup):
    _, _, _, channel, _ = quota_setup
    reply = channel.request("Messenger", (1,), 0, {}, {})  # missing `successful`
    assert reply.faults == ("StaleTruthMap",)
    assert reply.guard_results == (False,)


def test_extra_truth_value_is_stale(quota_setup):
    cp, gs, _, channel, _ = quota_setup
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    before = snapshot(gs)
    reply = channel.request("Messenger", (0,), 0, {successful_id: True}, {})  # rule 0 has no app condition
    assert reply.faults == ("StaleTruthMap",)
    assert reply.guard_results == (False,)
    assert snapshot(gs) == before


def test_batch_request_answers_each_rule_in_order(quota_setup):
    cp, gs, _, channel, _ = quota_setup
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    gs.vars.set("msgCount", VType.INT, 499)
    # rule 1 counts the send, so rule 0 sees the quota reached
    reply = channel.request("Messenger", (1, 0), 0, {successful_id: True}, {})
    assert reply.guard_results == (True, True)
    assert reply.appside_actions_to_run == ((), (0,))
    assert reply.faults == (None, None)
    assert gs.vars.get("msgCount", VType.INT) == 500


def test_unknown_rule_in_batch_faults_alone(quota_setup):
    _, gs, _, channel, _ = quota_setup
    gs.vars.set("msgCount", VType.INT, 500)
    reply = channel.request("Messenger", (99, 0), 0, {}, {})
    assert reply.faults == ("UnknownRule", None)
    assert reply.guard_results == (False, True)
    assert reply.appside_actions_to_run == ((), (0,))


def test_batch_log_entries_carry_rule_ids_and_parallel_results(quota_setup):
    _, _, central, channel, _ = quota_setup
    channel.request("Messenger", (99, 0), 7, {}, {})
    request, reply = central.log
    assert (request.rule_id, reply.rule_id) == ((99, 0), (99, 0))
    assert json.loads(request.to_json())["payload"] == {"appside_truth": {}, "forwarded_bindings": {}}
    assert json.loads(reply.to_json())["payload"] == {
        "guard_result": [False, False],
        "appside_actions_to_run": [[], []],
        "fault": ["UnknownRule", None],
    }


# intercept through the channel

def test_block_at_quota_via_intercept(quota_setup):
    _, gs, _, _, monitor = quota_setup
    gs.vars.set("msgCount", VType.INT, 500)
    result = monitor.intercept(send_before())
    assert result.blocked
    assert result.reason == "rule#0"


def test_after_occurrence_increments(quota_setup):
    _, gs, _, _, monitor = quota_setup
    assert not monitor.intercept(send_before()).blocked
    assert not monitor.intercept(send_after(ret=True)).blocked
    assert gs.vars.get("msgCount", VType.INT) == 1
    # an unsuccessful send does not count
    monitor.intercept(send_after(ret=False))
    assert gs.vars.get("msgCount", VType.INT) == 1


def test_unmatched_occurrence_proceeds(quota_setup):
    *_, monitor = quota_setup
    result = monitor.intercept(occ("Camera", "takePicture", Phase.BEFORE))
    assert not result.blocked and result.faults == ()


def test_fail_closed_on_disconnected_channel(quota_setup):
    _, _, _, channel, monitor = quota_setup
    channel.disconnect()
    result = monitor.intercept(send_before())
    assert result.blocked
    assert result.reason == "ChannelError"
    assert "ChannelError" in result.faults


def test_local_only_policy_ignores_channel_state(wifi_listing_policy):
    attrs = VarStore()
    monitor = LocalMonitor("Maps", "Maps", wifi_listing_policy, channel=None, attrs=attrs)
    blocked = monitor.intercept(
        occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,), t=14 * MS_PER_HOUR, app="Maps")
    )
    assert blocked.blocked and blocked.reason == "blockWifiAfterHours"
    assert attrs.get("wifi_enabled", VType.BOOL) is False and "wifi_enabled" in attrs
    allowed = monitor.intercept(
        occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,), t=9 * MS_PER_HOUR, app="Maps")
    )
    assert not allowed.blocked


def test_reply_fault_blocks_only_blocking_rules(quota_setup):
    cp, gs, central, channel, monitor = quota_setup

    # Corrupt the request path: the central monitor of a different policy
    # will report UnknownRule for rule ids it does not have.
    empty_cp = compile_src("Events { } Conditions { } Actions { } Rules { }")
    channel.central = CentralMonitor(empty_cp, GlobalState())
    before = monitor.intercept(send_before())
    assert before.blocked and before.reason == "UnknownRule"  # rule blocks
    after = monitor.intercept(send_after())
    assert not after.blocked  # counting rule does not block
    assert "UnknownRule" in after.faults


def test_explicit_arity_pattern_gates_rule_matching():
    # two events on the same call: one binds the single argument, one uses
    # the arity wildcard; an occurrence with unexpected arity only triggers
    # the wildcard rule
    src = """
    Events { ApplicationSide {
        typed() = { WifiManager *.setWifiEnabled(bool enabled) }
        anyArity() = { WifiManager *.setWifiEnabled(...) }
    } }
    Conditions { ApplicationSide { yes = { true } } }
    Actions { ApplicationSide {
        noteTyped = { local.typed := local.typed + 1; }
        noteAny = { local.any := local.any + 1; }
    } }
    Rules {
        typed() | yes -> noteTyped;
        anyArity() | yes -> noteAny;
    }
    """
    cp = compile_src(src)
    monitor = LocalMonitor("Maps", "Maps", cp, channel=None, attrs=VarStore())
    monitor.intercept(occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,)))
    assert monitor.local.get("typed", VType.INT) == 1
    assert monitor.local.get("any", VType.INT) == 1
    monitor.intercept(occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True, False)))
    assert monitor.local.get("typed", VType.INT) == 1  # arity 2 does not match
    assert monitor.local.get("any", VType.INT) == 2


# channel log and asymmetry

def test_channel_log_pairs(quota_setup):
    _, gs, central, channel, monitor = quota_setup
    monitor.intercept(send_before())
    monitor.intercept(send_after())
    directions = [e.direction for e in central.log]
    assert directions == [APP_TO_CENTRAL, CENTRAL_TO_APP, APP_TO_CENTRAL, CENTRAL_TO_APP]
    assert check_asymmetry(central.log) == []
    seqs = [e.seq for e in central.log]
    assert seqs == [0, 0, 1, 1]


def test_asymmetry_checker_flags_unsolicited():
    bad = [ChannelLogEntry(CENTRAL_TO_APP, 0, 0, "X", 0, None)]
    assert check_asymmetry(bad)
    mismatched = [
        ChannelLogEntry(APP_TO_CENTRAL, 0, 0, "X", 0, None),
        ChannelLogEntry(CENTRAL_TO_APP, 1, 0, "X", 0, None),
    ]
    assert check_asymmetry(mismatched)
    request = ChannelLogEntry(APP_TO_CENTRAL, 3, 10, "X", (0, 1), None)
    assert check_asymmetry([request, ChannelLogEntry(CENTRAL_TO_APP, 3, 10, "X", (0, 1), None)]) == []
    # a reply must also answer at its request's time, for its rules
    assert check_asymmetry([request, ChannelLogEntry(CENTRAL_TO_APP, 3, 11, "X", (0, 1), None)])
    assert check_asymmetry([request, ChannelLogEntry(CENTRAL_TO_APP, 3, 10, "X", (0,), None)])
    assert check_asymmetry([request, ChannelLogEntry(CENTRAL_TO_APP, 3, 10, "X", (1, 0), None)])


def test_requests_serialize_under_contention(msg_quota_policy):
    # a Channel serves one caller at a time; four apps' requests arrive
    # interleaved, in a seeded order
    gs = GlobalState()
    central = CentralMonitor(msg_quota_policy, gs)
    channel = Channel(central)
    cp = msg_quota_policy
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    callers = [f"App{i}" for i in range(4) for _ in range(50)]
    random.Random(4).shuffle(callers)
    for app in callers:
        channel.request(app, (1,), 0, {successful_id: True}, {})
    assert gs.vars.get("msgCount", VType.INT) == 200
    assert check_asymmetry(central.log) == []
    assert len(central.log) == 400


def test_repeated_rule_ids_answer_like_a_fresh_monitor(msg_quota_policy):
    # one rule_ids tuple sent stale, fresh, then stale again, and a tuple
    # with an unknown id twice: no staleness, fault or reply may carry over
    # from one request of a tuple to the next
    cp = msg_quota_policy
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    gs = GlobalState()
    gs.vars.set("msgCount", VType.INT, 498)
    channel = Channel(CentralMonitor(cp, gs))
    fresh_truth = {successful_id: True}
    sends = [((1, 0), {}), ((1, 0), fresh_truth), ((1, 0), {}), ((99, 1), fresh_truth), ((99, 1), fresh_truth)]
    replies = []
    for seq, (rule_ids, truth) in enumerate(sends):
        fresh_gs = gs.copy()
        want = CentralMonitor(cp, fresh_gs).handle_request(MonitorRequest(seq, "Messenger", rule_ids, 0, truth, {}))
        got = channel.request("Messenger", rule_ids, 0, truth, {})
        assert got == want
        assert snapshot(gs) == snapshot(fresh_gs)
        replies.append((got.guard_results, got.faults))
    assert replies == [
        ((False, False), ("StaleTruthMap", "StaleTruthMap")),
        ((True, False), (None, None)),
        ((False, False), ("StaleTruthMap", "StaleTruthMap")),
        ((False, True), ("UnknownRule", None)),
        ((False, False), ("UnknownRule", None)),
    ]


def test_replay_requests_reproduces_snapshot(quota_setup):
    cp, gs, central, channel, monitor = quota_setup
    for i in range(5):
        monitor.intercept(send_before(t=i))
        monitor.intercept(send_after(t=i))
    rebuilt = replay_requests(cp, central.log)
    assert snapshot(rebuilt) == snapshot(gs)


# snapshot and accounting

def test_fresh_snapshot_canonical():
    assert snapshot(GlobalState()) == '{"attrs":{},"vars":{}}'


def test_snapshot_equality_tracks_state_equality():
    a, b = GlobalState(), GlobalState()
    a.vars.set("n", VType.INT, 1)
    b.vars.set("n", VType.INT, 1)
    assert snapshot(a) == snapshot(b)
    b.vars.set("n", VType.INT, 2)
    assert snapshot(a) != snapshot(b)


def test_snapshot_restore_roundtrip():
    gs = GlobalState()
    gs.vars.set("xs", VType.TS_LIST, [1, 2, 3])
    gs.vars.set("flag", VType.BOOL, True)
    doc = json.loads(snapshot(gs))
    rebuilt = GlobalState()
    for name, row in doc["vars"].items():
        rebuilt.vars.set(name, VType(row["kind"]), row["value"])
    assert snapshot(rebuilt) == snapshot(gs)


def test_state_size_fresh_all_zero():
    report = state_size(GlobalState())
    assert report == {"vars": {}, "attrs": {}, "total_bytes": 0}


def test_state_size_counts_list_elements():
    gs = GlobalState()
    gs.vars.set("sendTimes", VType.TS_LIST, list(range(5)))
    gs.vars.set("msgCount", VType.INT, 300)
    report = state_size(gs)
    assert report["vars"]["sendTimes"] == {"kind": "ts_list", "elements": 5, "bytes": 40}
    assert report["vars"]["msgCount"] == {"kind": "int", "elements": 1, "bytes": 8}
    assert report["total_bytes"] == 48
