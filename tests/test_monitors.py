"""Local and central monitors plus the request/reply channel."""

import dataclasses
import json
import random

import pytest

from dcmon.central_monitor import (
    APP_TO_CENTRAL,
    CENTRAL_TO_APP,
    Channel,
    CentralMonitor,
    GlobalState,
    MonitorReply,
    MonitorRequest,
    check_asymmetry,
    replay_requests,
    snapshot,
    state_size,
)
from dcmon.dsl import Phase
from dcmon.local_monitor import EventOccurrence, LocalMonitor
from dcmon.lang.eval import APP_SIDE
from dcmon.lang.state import VarStore
from dcmon.lang.values import MS_PER_HOUR, VType

from conftest import compile_src


def occ(namespace, method, phase, args=(), ret=None, t=0):
    return EventOccurrence(
        namespace=namespace, method=method, phase=phase, args=tuple(args), return_value=ret, t=t,
    )


def send_before(t=0):
    return occ("SmsManager", "sendTextMessage", Phase.BEFORE, ("21234567", "hi"), t=t)


def send_after(t=0, ret=True):
    return occ("SmsManager", "sendTextMessage", Phase.AFTER, ("21234567", "hi"), ret=ret, t=t)


@pytest.fixture()
def quota_setup(msg_quota_policy):
    gs = GlobalState()
    central = CentralMonitor(msg_quota_policy, gs)
    channel = Channel(central)
    monitor = LocalMonitor("Messenger", "Messenger", msg_quota_policy, channel, gs.attrs)
    return msg_quota_policy, gs, central, channel, monitor


# binding: what the app-side conditions of a batch see

def recording_conditions(cp):
    """`cp` with each condition body recording the event bindings it runs
    under on the app side, and the list they go to."""
    seen = []

    def recorded(code):
        def run(ctx):
            if ctx.side == APP_SIDE:
                seen.append(dict(ctx.event_bindings))
            return code(ctx)

        return run

    return dataclasses.replace(cp, condition_code=tuple(recorded(c) for c in cp.condition_code)), seen


def intercepting(cp):
    monitor = LocalMonitor("Messenger", "Messenger", cp, Channel(CentralMonitor(cp, GlobalState())), VarStore())
    return monitor.intercept


def test_bind_return_value(msg_quota_policy):
    cp, seen = recording_conditions(msg_quota_policy)
    intercept = intercepting(cp)
    intercept(send_after(ret=True))
    intercept(send_after(ret=False))
    # `successful` reads `sent`, the uponReturning binding; the positional
    # arguments of a `(...)` trigger bind nothing
    assert seen == [{"sent": True}, {"sent": False}]


def test_bind_positional(wifi_listing_policy):
    cp, seen = recording_conditions(wifi_listing_policy)
    result = intercepting(cp)(occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,), t=14 * MS_PER_HOUR))
    assert seen == [{"enabled": True}, {"enabled": True}]
    assert result.reason == "blockWifiAfterHours"


def test_bind_wildcard_no_params():
    cp, seen = recording_conditions(compile_src("""
    Events { ApplicationSide { anySend() = { SmsManager *.sendTextMessage(...) } } }
    Conditions { ApplicationSide { yes = { true } } }
    Actions { ApplicationSide { deny = { block(); } } }
    Rules { anySend() | yes -> deny; }
    """))
    result = intercepting(cp)(occ("SmsManager", "sendTextMessage", Phase.BEFORE, (1, 2, 3)))
    assert seen == [{}]
    assert result.reason == "rule#0"


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


@pytest.mark.parametrize("where", ["negative", "past_the_end"])
def test_out_of_range_rule_id_is_unknown(quota_setup, where):
    cp, gs, _, channel, _ = quota_setup
    rule_id = -1 if where == "negative" else len(cp.rules)
    before = snapshot(gs)
    reply = channel.request("Messenger", (rule_id,), 0, {}, {})
    assert reply.faults == ("UnknownRule",)
    assert reply.guard_results == (False,)
    assert reply.appside_actions_to_run == ((),)
    assert snapshot(gs) == before


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
    channel = Channel(CentralMonitor(wifi_listing_policy, GlobalState()))
    channel.disconnect()
    monitor = LocalMonitor("Maps", "Maps", wifi_listing_policy, channel=channel, attrs=attrs)
    blocked = monitor.intercept(
        occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,), t=14 * MS_PER_HOUR)
    )
    assert blocked.blocked and blocked.reason == "blockWifiAfterHours"
    assert attrs.get("wifi_enabled", VType.BOOL) is False and "wifi_enabled" in attrs
    allowed = monitor.intercept(
        occ("WifiManager", "setWifiEnabled", Phase.BEFORE, (True,), t=9 * MS_PER_HOUR)
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
    channel = Channel(CentralMonitor(cp, GlobalState()))
    monitor = LocalMonitor("Maps", "Maps", cp, channel=channel, attrs=VarStore())
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


def test_the_log_holds_the_messages_themselves(quota_setup):
    cp, _, central, _, _ = quota_setup
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    request = MonitorRequest(0, "Messenger", (1,), 7, {successful_id: True}, {})
    reply = central.handle_request(request)
    assert len(central.log) == 2
    assert central.log[0] is request and central.log[1] is reply
    assert [e.direction for e in central.log] == [APP_TO_CENTRAL, CENTRAL_TO_APP]
    assert (reply.seq, reply.app_id, reply.t, reply.rule_id) == (0, "Messenger", 7, (1,))


def request_record(seq, t, rule_id):
    return MonitorRequest(seq, "X", rule_id, t, {}, {})


def reply_record(seq, t, rule_id):
    return MonitorReply(seq, "X", rule_id, t, (), (), ())


def test_asymmetry_checker_flags_unsolicited():
    bad = [reply_record(0, 0, 0)]
    assert check_asymmetry(bad)
    mismatched = [request_record(0, 0, 0), reply_record(1, 0, 0)]
    assert check_asymmetry(mismatched)
    request = request_record(3, 10, (0, 1))
    assert check_asymmetry([request, reply_record(3, 10, (0, 1))]) == []
    # a reply must also answer at its request's time, for its rules
    assert check_asymmetry([request, reply_record(3, 11, (0, 1))])
    assert check_asymmetry([request, reply_record(3, 10, (0,))])
    assert check_asymmetry([request, reply_record(3, 10, (1, 0))])


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


def test_full_batch_tuples_answer_like_a_fresh_monitor(msg_quota_policy):
    # each request names one batch's full tuple, which the central monitor
    # reads from the policy's table: sent stale, fresh, stale again, and
    # with an extra truth value; nothing may carry over between requests
    cp = msg_quota_policy
    successful_id = next(i for i, c in enumerate(cp.conditions) if c.name == "successful")
    quota_id = next(i for i, c in enumerate(cp.conditions) if c.name == "maximumQuotaReached")
    assert sorted(cp.requests) == [(0,), (1,)]
    gs = GlobalState()
    gs.vars.set("msgCount", VType.INT, 498)
    channel = Channel(CentralMonitor(cp, gs))
    fresh_truth = {successful_id: True}
    extra_truth = {successful_id: True, quota_id: False}
    sends = [((1,), {}), ((1,), fresh_truth), ((1,), {}), ((1,), extra_truth), ((0,), {}), ((0,), fresh_truth)]
    replies = []
    for seq, (rule_ids, truth) in enumerate(sends):
        before = snapshot(gs)
        fresh_gs = gs.copy()
        want = CentralMonitor(cp, fresh_gs).handle_request(MonitorRequest(seq, "Messenger", rule_ids, 0, truth, {}))
        got = channel.request("Messenger", rule_ids, 0, truth, {})
        assert got == want
        assert snapshot(gs) == snapshot(fresh_gs)
        if got.faults == ("StaleTruthMap",):
            assert snapshot(gs) == before
        replies.append((got.guard_results, got.faults))
    assert replies == [
        ((False,), ("StaleTruthMap",)),
        ((True,), (None,)),
        ((False,), ("StaleTruthMap",)),
        ((False,), ("StaleTruthMap",)),
        ((False,), (None,)),
        ((False,), ("StaleTruthMap",)),
    ]
    assert gs.vars.get("msgCount", VType.INT) == 499


FORWARDING_SRC = """
Events { ApplicationSide {
   sendB() = { SmsManager *.sendTextMessage(string dest, string body) }
} }
Conditions { GlobalSide {
   always = { true }
   home = { starts_with(event.dest, "+356") }
   late = { hour_of_day(now) >= 1 }
} }
Actions { GlobalSide {
   crash = { global.g := global.g + 1; global.g := global.g / (global.g - global.g); }
   countHome = { global.homes := global.homes + 1; }
   countLate = { global.lates := global.lates + 1; }
} }
Rules {
   sendB() | home -> countHome;
   sendB() | late -> countLate;
   sendB() | always -> crash;
}
"""


def test_one_central_context_carries_nothing_between_requests():
    # the first request's time and forwarded dest make only `home` hold, the
    # second's only `late`, and each request's last rule faults after a
    # write: neither the time, the bindings nor the undo log may carry over
    cp = compile_src(FORWARDING_SRC)
    (rule_ids,) = cp.requests
    gs = GlobalState()
    central = CentralMonitor(cp, gs)
    channel = Channel(central)
    sends = [(0, {"dest": "+35621123456"}), (2 * MS_PER_HOUR, {"dest": "21234567"})]
    replies = []
    for seq, (t, bindings) in enumerate(sends):
        fresh_gs = gs.copy()
        want = CentralMonitor(cp, fresh_gs).handle_request(MonitorRequest(seq, "Messenger", rule_ids, t, {}, bindings))
        got = channel.request("Messenger", rule_ids, t, {}, bindings)
        assert got == want
        assert snapshot(gs) == snapshot(fresh_gs)
        assert central._ctx.undo == []
        replies.append((got.guard_results, got.faults))
    assert replies == [
        ((True, False, False), (None, None, "EvalFault:DivisionByZero")),
        ((False, True, False), (None, None, "EvalFault:DivisionByZero")),
    ]
    assert [(name, gs.vars.get(name, VType.INT)) for name in ("homes", "lates")] == [("homes", 1), ("lates", 1)]
    assert "g" not in gs.vars


# The app-side twin of FORWARDING_SRC: `home` reads the bound dest, `late`
# the time, and the last rule's action faults after a write. With `open`
# in every guard, each rule is NeedsGlobal and the batch sends all three;
# without it, the batch is LocalOnly and sends nothing.
APP_CONTEXT_SRC = """
Events { ApplicationSide {
   sendB() = { SmsManager *.sendTextMessage(string dest, string body) }
} }
Conditions {
   ApplicationSide {
      always = { true }
      home = { starts_with(dest, "+356") }
      late = { hour_of_day(now) >= 1 }
   }
   GlobalSide { open = { true } }
}
Actions { ApplicationSide {
   crash = { local.g := local.g + 1; local.g := local.g / (local.g - local.g); }
   countHome = { local.homes := local.homes + 1; }
   countLate = { local.lates := local.lates + 1; }
} }
Rules {
   sendB() | home OPEN -> countHome;
   sendB() | late OPEN -> countLate;
   sendB() | always OPEN -> crash;
}
"""


@pytest.mark.parametrize("open_guard", [" && open", ""], ids=["needs_global", "local_only"])
def test_one_app_context_carries_nothing_between_batches(open_guard):
    # the first occurrence's time and dest make only `home` hold, the
    # second's only `late`, and each ends in an action that faults after a
    # write: neither the time, the bindings nor the undo log may carry over
    cp = compile_src(APP_CONTEXT_SRC.replace(" OPEN", open_guard))
    (batch,) = cp.dispatch["SmsManager", "sendTextMessage"][0]
    assert batch.all_sent == bool(open_guard)
    gs = GlobalState()
    monitor = LocalMonitor("Messenger", "Messenger", cp, Channel(CentralMonitor(cp, gs)), gs.attrs)
    sends = [(0, "+35621123456"), (2 * MS_PER_HOUR, "21234567")]
    results = []
    for t, dest in sends:
        fresh_gs = gs.copy()
        fresh = LocalMonitor("Messenger", "Messenger", cp, Channel(CentralMonitor(cp, fresh_gs)), fresh_gs.attrs)
        for name, kind, value in monitor.local.items_typed():
            fresh.local.set(name, kind, value)
        occurrence = occ("SmsManager", "sendTextMessage", Phase.BEFORE, (dest, "hi"), t=t)
        want = fresh.intercept(occurrence)
        got = monitor.intercept(occurrence)
        assert got == want
        assert monitor.local == fresh.local
        assert monitor._ctx.undo == []
        results.append((got.reason, got.faults))
    assert results == [("EvalError:DivisionByZero", ("EvalError:DivisionByZero",))] * 2
    assert [(name, monitor.local.get(name, VType.INT)) for name in ("homes", "lates")] == [("homes", 1), ("lates", 1)]
    assert "g" not in monitor.local


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
