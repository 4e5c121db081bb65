"""The compile-time batch plan against one request per rule.

The NeedsGlobal rules of one batch share a single channel round trip.
Cutting every batch down to one rule gives the reference protocol, one
request per NeedsGlobal rule, and runs LocalOnly rules one by one. Both
must give the same verdicts, snapshot and faults, and each run's channel
log must rebuild its snapshot.
"""

import dataclasses
import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon import local_monitor
from dcmon.central_monitor import (
    APP_TO_CENTRAL,
    CENTRAL_TO_APP,
    CentralMonitor,
    Channel,
    GlobalState,
    replay_requests,
    snapshot,
)
from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.dsl import Phase, parse_policy, validate_policy
from dcmon.engine import Batch, CompiledPolicy
from dcmon.lang.eval import EvalContext
from dcmon.lang.values import MS_PER_SECOND, VType
from dcmon.sim import check_policy_against_catalog, run
from dcmon.tracegen import PROFILES, make_trace

from conftest import compile_src, phase_plans, plan_rules, replan, send, sends_every


def one_rule_batches(cp: CompiledPolicy) -> CompiledPolicy:
    """The same policy with every batch of its plan cut to one rule."""
    return replan(cp, lambda plan: tuple(Batch([r]) for r in plan_rules(plan)))


def single_batch(cp: CompiledPolicy) -> CompiledPolicy:
    """The same policy with each phase's rules forced into one batch."""
    return replan(cp, lambda plan: (Batch(plan_rules(plan)),) if plan else ())


def requests(res) -> int:
    return sum(1 for e in res.channel_entries if e.direction == APP_TO_CENTRAL)


def rebuilt_snapshot(cp, res) -> str:
    # device attributes are written by catalog effects, not by the channel
    gs = replay_requests(cp, res.channel_entries, res.initial_global)
    return snapshot(GlobalState(vars=gs.vars, attrs=res.global_state.attrs))


def assert_same_as_one_rule_batches(cp, trace, **kwargs):
    reference = one_rule_batches(cp)
    got = run(trace, cp, **kwargs)
    want = run(trace, reference, **kwargs)
    assert got.verdict_lines() == want.verdict_lines()
    assert got.snapshot == want.snapshot
    assert got.faults == want.faults
    assert rebuilt_snapshot(cp, got) == got.snapshot
    assert rebuilt_snapshot(reference, want) == want.snapshot
    assert requests(got) <= requests(want)
    return got, want


# the corpus

TRACES = [make_trace(40_000 + i, profile=p, max_events=300) for i, p in enumerate(PROFILES)] + [
    make_trace(41_000 + i, max_events=300) for i in range(4)
]


@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_corpus_plan_matches_one_rule_batches(pid):
    cp = compile_corpus_policy(pid)
    for trace in TRACES:
        assert_same_as_one_rule_batches(cp, trace)


def test_sitting_policy_sends_one_request_per_occurrence():
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    for key, plan in phase_plans(cp).items():
        assert [len(b.rules) for b in plan] == ([4] if key[2] is Phase.BEFORE else []), key
    trace = sends_every(MS_PER_SECOND, 30)
    got, want = assert_same_as_one_rule_batches(cp, trace)
    assert requests(got) == 30
    assert requests(want) == 4 * 30


def test_every_key_has_a_plan():
    for pid in CORPUS_IDS:
        cp = compile_corpus_policy(pid)
        triggers = [cp.events[r.trigger_id] for r in cp.rules]
        listened = {(e.pattern.api_namespace, e.pattern.method, e.phase) for e in triggers}
        for key, plan in phase_plans(cp).items():
            assert bool(plan) == (key in listened) and all(b.rules for b in plan), (pid, key)
    # WiFiLmt is LocalOnly: its batches name no rule, so they send nothing
    batches = [b for plan in phase_plans(compile_corpus_policy("WiFiLmt")).values() for b in plan]
    assert batches and all(b.rule_ids == () for b in batches)


# each batch's request, fixed at compile time

def assert_request_facts(cp: CompiledPolicy) -> None:
    """Each batch's truth ids, truth keys and forwarded names are what a
    loop over its sent rules builds, and the policy's table maps the full
    rule ids of each batch that sends a request, and nothing else, to it."""
    batches = [b for plans in cp.dispatch.values() for plan in plans for b in plan]
    for b in batches:
        assert b.truth_ids == tuple({cid: None for rule in b.sent for cid in rule.app_condition_ids})
        assert b.truth_keys == set(b.truth_ids)
        assert b.forwarded == tuple({p: None for rule in b.sent for p in rule.forwarded_params})
        if b.sent:
            assert cp.requests[b.rule_ids] is b
    assert len(cp.requests) == sum(1 for b in batches if b.sent)


@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_request_facts_match_the_sent_rules(pid):
    cp = compile_corpus_policy(pid)
    for policy in (cp, one_rule_batches(cp), single_batch(cp)):
        assert_request_facts(policy)


def test_a_rebuilt_policy_answers_with_its_own_batches(msg_quota_policy):
    # rule 0 blocks a send once the quota is reached; the rebuilt policy's
    # copy of it holds always, and its central monitor must use that copy
    cp = msg_quota_policy
    rules = tuple(dataclasses.replace(r, guard=lambda truth: True) if r.rule_id == 0 else r for r in cp.rules)
    rebuilt = replan(
        dataclasses.replace(cp, rules=rules),
        lambda plan: tuple(Batch([rules[r.rule_id] for r in b.rules]) for b in plan),
    )
    for policy, guard in ((cp, False), (rebuilt, True)):
        reply = Channel(CentralMonitor(policy, GlobalState())).request("Messenger", (0,), 0, {}, {})
        assert reply.guard_results == (guard,)
    assert run([send(0)], cp).decisions() == ["Allowed"]
    assert run([send(0)], rebuilt).decisions() == ["Blocked"]


# a write that a later condition reads cuts the batch

LOCAL_WRITE_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions {
    ApplicationSide { secondSend = { local.x == 2 } }
    GlobalSide { always = { true } }
}
Actions {
    ApplicationSide {
        mark = { local.x := local.x + 1; }
        deny = { block(); }
    }
    GlobalSide { count = { global.sends := global.sends + 1; } }
}
Rules {
    noteSend = sendB() | always -> count, mark;
    denySecond = sendB() | secondSend && always -> deny;
    countAgain = sendB() | always -> count;
}
"""


def test_local_write_read_cuts_the_batch():
    cp = compile_src(LOCAL_WRITE_SRC)
    ((plan, _),) = cp.dispatch.values()
    assert [[r.name for r in b.rules] for b in plan] == [["noteSend"], ["denySecond", "countAgain"]]

    trace = [send(i * MS_PER_SECOND, app) for i, app in enumerate(["A", "A", "B", "A", "B"])]
    got, _ = assert_same_as_one_rule_batches(cp, trace)
    # noteSend raises each app's local.x on every attempt before denySecond
    # reads it, so each app's second send is the one refused
    assert got.decisions() == ["Allowed", "Blocked", "Allowed", "Allowed", "Blocked"]
    assert [v.reason for v in got.verdicts if v.decision == "Blocked"] == ["denySecond", "denySecond"]
    assert got.global_state.vars.get("sends", VType.INT) == 10
    assert requests(got) == 10
    # without the cut, denySecond would read local.x before noteSend wrote it
    uncut = run(trace, single_batch(cp))
    assert uncut.decisions() == ["Allowed", "Allowed", "Allowed", "Blocked", "Allowed"]


# triggers that bind otherwise cut the batch

BINDING_CUT_SRC = """
Events { ApplicationSide {
    byDest() = { SmsManager *.sendTextMessage(string dest, string body) }
    alsoByDest() = { SmsManager *.sendTextMessage(string dest, string body) }
    byBody() = { SmsManager *.sendTextMessage(string body, string dest) }
    anySend() = { SmsManager *.sendTextMessage(...) }
} }
Conditions {
    ApplicationSide { home = { starts_with(dest, "+356") } }
    GlobalSide {
        fwdHome = { starts_with(event.dest, "+356") }
        always = { true }
    }
}
Actions { GlobalSide { count = { global.n := global.n + 1; } } }
Rules {
    homeA = byDest() | home -> count;
    fwdA = alsoByDest() | fwdHome -> count;
    homeB = byBody() | home -> count;
    fwdB = byBody() | fwdHome -> count;
    any = anySend() | always -> count;
}
"""


def test_triggers_that_bind_otherwise_cut_the_batch():
    cp = compile_src(BINDING_CUT_SRC)
    ((plan, _),) = cp.dispatch.values()
    # byBody binds `dest` to the other argument, anySend binds nothing
    assert [[r.name for r in b.rules] for b in plan] == [["homeA", "fwdA"], ["homeB", "fwdB"], ["any"]]
    trace = [send(0, dest="+35621123456"), send(1, dest="21234567")]
    got, _ = assert_same_as_one_rule_batches(cp, trace)
    # homeA and fwdA count the first send, `any` both; byBody reads "hi"
    # as dest
    assert got.global_state.vars.get("n", VType.INT) == 4
    assert requests(got) == 3 * 2


def test_a_batch_binds_its_occurrence_once(monkeypatch):
    contexts, bound = [], []

    def counted(*args):
        ctx = EvalContext(*args)
        contexts.append(ctx)
        return ctx

    request = Channel.request

    def recorded(self, *args):
        bound.append(dict(contexts[-1].event_bindings))
        return request(self, *args)

    monkeypatch.setattr(local_monitor, "EvalContext", counted)
    monkeypatch.setattr(Channel, "request", recorded)
    run([send(0, dest="+35621123456")], compile_src(BINDING_CUT_SRC))
    # one context for the app, which each batch binds by its first trigger
    # before it sends: homeA's byDest binds for fwdA too, though fwdA's
    # trigger is alsoByDest
    assert len(contexts) == 1
    assert bound == [
        {"dest": "+35621123456", "body": "hi"},
        {"body": "+35621123456", "dest": "hi"},
        {},
    ]


# fail-closed holds for every rule of a batch

def test_disconnected_channel_faults_every_rule_of_the_batch():
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    res = run([send(0)], cp, channel_connected=False)
    assert res.faults == [(0, "ChannelError")] * 4
    assert (res.verdicts[0].decision, res.verdicts[0].reason) == ("Blocked", "ChannelError")
    assert res.channel_entries == []


CENTRAL_FAULT_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions {
    GlobalSide {
        always = { true }
        broken = { 10 / (global.sends - global.sends) > 1 }
        many = { global.sends >= 2 }
    }
}
Actions {
    GlobalSide { count = { global.sends := global.sends + 1; } }
    ApplicationSide { deny = { block(); } }
}
Rules {
    countSend = sendB() | always -> count;
    brokenCount = sendB() | broken -> count;
    quotaDeny = sendB() | many -> deny;
    brokenDeny = sendB() | broken || many -> deny;
}
"""


# An app-side condition that faults drops its rule from the batch's request:
# the first send names three of the four rules, and the truth map leaves
# out `inverse`. Later sends name the whole batch.
APP_FAULT_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions {
    ApplicationSide {
        inverse = { 10 / local.n > 2 }
        small = { local.n < 5 }
    }
    GlobalSide {
        always = { true }
        many = { global.sends >= 3 }
    }
}
Actions {
    ApplicationSide {
        bump = { local.n := local.n + 1; }
        deny = { block(); }
    }
    GlobalSide { count = { global.sends := global.sends + 1; } }
}
Rules {
    countSend = sendB() | always -> count;
    inverseDeny = sendB() | inverse && many -> deny;
    quotaDeny = sendB() | small && many -> deny;
    bumpAll = sendB() | small && always -> bump;
}
"""

# A LocalOnly blocking rule ahead of the NeedsGlobal rules: it is decided
# here and takes no entry of the reply, so the reply's entries still line
# up with the rules sent when `inverse` faults and drops inverseDeny.
LOCAL_FIRST_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions {
    ApplicationSide {
        big = { local.n >= 3 }
        inverse = { 10 / local.n > 2 }
        small = { local.n < 5 }
    }
    GlobalSide {
        always = { true }
        many = { global.sends >= 3 }
    }
}
Actions {
    ApplicationSide {
        bump = { local.n := local.n + 1; }
        deny = { block(); }
    }
    GlobalSide { count = { global.sends := global.sends + 1; } }
}
Rules {
    localDeny = sendB() | big -> deny;
    countSend = sendB() | always -> count;
    inverseDeny = sendB() | inverse && many -> deny;
    quotaDeny = sendB() | small && many -> deny;
    bumpAll = sendB() | always -> bump;
}
"""

ALL_FOUR = ("countSend", "brokenCount", "quotaDeny", "brokenDeny")
BROKEN = "EvalFault:DivisionByZero"
FAULT_IN_A_BATCH = {
    # the first send is refused only by the faulting blocking rule, later
    # ones by quotaDeny, which comes before it
    "global_condition": dict(
        src=CENTRAL_FAULT_SRC,
        requests=(4, 16),
        verdicts=[("Blocked", BROKEN)] + [("Blocked", "quotaDeny")] * 3,
        faults=[(i, BROKEN) for i in range(4) for _ in range(2)],
        sends=4,
        exchanges={
            2: (ALL_FOUR, (), (True, False, True, False), ((), (), ("deny",), ()), (None, BROKEN, None, BROKEN)),
        },
    ),
    # inverseDeny blocks with its own fault on the first send, while
    # local.n is still 0, and is left out of that request
    "app_condition": dict(
        src=APP_FAULT_SRC,
        requests=(3, 11),
        verdicts=[("Blocked", "EvalError:DivisionByZero"), ("Allowed", "no rule"), ("Blocked", "inverseDeny")],
        faults=[(0, "EvalError:DivisionByZero")],
        sends=3,
        exchanges={
            0: (
                ("countSend", "quotaDeny", "bumpAll"),
                ("small",),
                (True, False, True),
                ((), (), ("bump",)),
                (None, None, None),
            ),
            1: (
                ("countSend", "inverseDeny", "quotaDeny", "bumpAll"),
                ("inverse", "small"),
                (True, False, False, True),
                ((), (), (), ("bump",)),
                (None, None, None, None),
            ),
        },
    ),
    # localDeny refuses only the last send, once local.n reaches 3; the
    # first is refused by inverseDeny's fault, the third by inverseDeny
    "local_rule_first": dict(
        src=LOCAL_FIRST_SRC,
        requests=(4, 15),
        verdicts=[
            ("Blocked", "EvalError:DivisionByZero"),
            ("Allowed", "no rule"),
            ("Blocked", "inverseDeny"),
            ("Blocked", "localDeny"),
        ],
        faults=[(0, "EvalError:DivisionByZero")],
        sends=4,
        exchanges={
            0: (
                ("countSend", "quotaDeny", "bumpAll"),
                ("small",),
                (True, False, True),
                ((), (), ("bump",)),
                (None, None, None),
            ),
            3: (
                ("countSend", "inverseDeny", "quotaDeny", "bumpAll"),
                ("inverse", "small"),
                (True, True, True, True),
                ((), ("deny",), ("deny",), ("bump",)),
                (None, None, None, None),
            ),
        },
    ),
}


def named_exchanges(cp, res) -> list:
    """Each request and its reply, with ids replaced by names: the rules
    the request names, the conditions of its truth map, and the reply's
    guard results, app-side actions to run and faults."""
    sent = [e for e in res.channel_entries if e.direction == APP_TO_CENTRAL]
    answered = [e for e in res.channel_entries if e.direction == CENTRAL_TO_APP]
    return [
        (
            tuple(cp.rules[r].name for r in request.rule_id),
            tuple(cp.conditions[c].name for c in sorted(request.payload["appside_truth"])),
            reply.payload["guard_result"],
            tuple(tuple(cp.actions[a].name for a in aids) for aids in reply.payload["appside_actions_to_run"]),
            reply.payload["fault"],
        )
        for request, reply in zip(sent, answered)
    ]


@pytest.mark.parametrize("case", FAULT_IN_A_BATCH.values(), ids=FAULT_IN_A_BATCH)
def test_a_fault_in_a_batch_leaves_other_rules_alone(case):
    cp = compile_src(case["src"])
    ((plan, _),) = cp.dispatch.values()
    assert len(plan) == 1 and len(plan[0].rule_ids) == 4
    trace = sends_every(MS_PER_SECOND, len(case["verdicts"]))
    got, want = assert_same_as_one_rule_batches(cp, trace)
    assert (requests(got), requests(want)) == case["requests"]
    assert [(v.decision, v.reason) for v in got.verdicts] == case["verdicts"]
    assert got.faults == case["faults"]
    assert got.global_state.vars.get("sends", VType.INT) == case["sends"]
    exchanges = named_exchanges(cp, got)
    for k, exchange in case["exchanges"].items():
        assert exchanges[k] == exchange


# random policies on the device catalog
#
# The random policies of test_roundtrip almost never validate with a rule
# (their rules name random events and conditions), and none matches the
# device catalog, so these are drawn from declaration pools instead. Each
# rule only uses conditions whose event names its trigger binds and never
# blocks on an after-phase trigger, so most drawn policies validate.
# Conditions are declared only when a rule uses them, because a condition
# is checked against the triggers of the rules that use it; actions read
# no event names and are all declared.

# name: (declaration, names it binds, after phase)
EVENTS = {
    "sendB": ("sendB() = { SmsManager *.sendTextMessage(...) }", set(), False),
    "sendTyped": ("sendTyped() = { SmsManager *.sendTextMessage(string dest, string body) }", {"dest", "body"}, False),
    "sendSwapped": ("sendSwapped() = { SmsManager *.sendTextMessage(string body, string dest) }", {"dest", "body"}, False),
    "sendA": ("sendA(boolean ok) = { after SmsManager *.sendTextMessage(...) } uponReturning(ok)", {"ok"}, True),
    "dialB": ("dialB() = { TelephonyManager *.dialCall(string dest) }", {"dest"}, False),
    "wifiB": ("wifiB() = { WifiManager *.setWifiEnabled(boolean on) }", {"on"}, False),
}
# name: (side, body, event names it reads)
CONDITIONS = {
    "lowCount": ("ApplicationSide", "local.n < 3", set()),
    "flagged": ("ApplicationSide", "local.flag", set()),
    "morning": ("ApplicationSide", "hour_of_day(now) < 12", set()),
    "inverse": ("ApplicationSide", "10 / local.n > 2", set()),
    "homeDest": ("ApplicationSide", 'starts_with(dest, "+356")', {"dest"}),
    "succeeded": ("ApplicationSide", "ok == true", {"ok"}),
    "switchingOn": ("ApplicationSide", "on", {"on"}),
    "busy": ("GlobalSide", "global.g >= 3", set()),
    "recent": ("GlobalSide", "count_within(global.ts, minutes(10)) >= 2", set()),
    "gflag": ("GlobalSide", "global.flag", set()),
    "ginverse": ("GlobalSide", "10 / global.g > 3", set()),
    "fwdHome": ("GlobalSide", 'starts_with(event.dest, "+356")', {"dest"}),
    "fwdHello": ("GlobalSide", 'event.body == "hi"', {"body"}),
}
# name: (side, body, blocks)
ACTIONS = {
    "bump": ("ApplicationSide", "local.n := local.n + 1;", False),
    "toggle": ("ApplicationSide", "local.flag := !local.flag;", False),
    "deny": ("ApplicationSide", "block();", True),
    "wifiOff": ("ApplicationSide", 'set_attr("wifi_enabled", false);', False),
    "reset": ("ApplicationSide", "local.n := 0;", False),
    "shrink": ("ApplicationSide", "local.n := 10 / local.n;", False),
    "gbump": ("GlobalSide", "global.g := global.g + 1;", False),
    "stamp": ("GlobalSide", "append(global.ts, now); prune_older(global.ts, minutes(30));", False),
    "gtoggle": ("GlobalSide", "global.flag := !global.flag;", False),
    "gstep": ("GlobalSide", "global.g := global.g + 1; global.q := 100 / (global.g - 2);", False),
}


def guards(names):
    return st.recursive(
        st.sampled_from(names),
        lambda g: st.one_of(
            g.map(lambda a: f"!{a}"),
            st.tuples(g, g).map(lambda t: f"({t[0]} && {t[1]})"),
            st.tuples(g, g).map(lambda t: f"({t[0]} || {t[1]})"),
        ),
        max_leaves=3,
    )


@st.composite
def rule_lists(draw):
    """(trigger, guard, actions) triples over one or two triggers."""
    triggers = draw(st.lists(st.sampled_from(sorted(EVENTS)), min_size=1, max_size=2, unique=True))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        trigger = draw(st.sampled_from(triggers))
        _, bound, after = EVENTS[trigger]
        conds = sorted(c for c, (_, _, reads) in CONDITIONS.items() if reads <= bound)
        acts = sorted(a for a, (_, _, blocks) in ACTIONS.items() if not (blocks and after))
        guard = draw(guards(conds))
        out.append((trigger, guard, draw(st.lists(st.sampled_from(acts), min_size=1, max_size=2, unique=True))))
    return out


def policy_source(rule_list) -> str:
    used = {name for _, guard, _ in rule_list for name in re.findall(r"\w+", guard)}

    def group(block, decls, names):
        sides = {}
        for name in sorted(names):
            side, body, _ = decls[name]
            sides.setdefault(side, []).append(f"{name} = {{ {body} }}")
        return f"{block} {{ " + " ".join(f"{side} {{ {' '.join(d)} }}" for side, d in sides.items()) + " }"

    triggers = sorted({trigger for trigger, _, _ in rule_list})
    rules = " ".join(f"{trigger}() | {guard} -> {', '.join(acts)};" for trigger, guard, acts in rule_list)
    return "\n".join(
        [
            "Events { ApplicationSide { " + " ".join(EVENTS[e][0] for e in triggers) + " } }",
            group("Conditions", CONDITIONS, used & set(CONDITIONS)),
            # every action, so that every state variable has a kind
            group("Actions", ACTIONS, ACTIONS),
            f"Rules {{ {rules} }}",
        ]
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000))
def test_random_policy_plan_matches_one_rule_batches(rule_list, seed):
    cp = validate_policy(parse_policy(policy_source(rule_list)))
    assume(isinstance(cp, CompiledPolicy))
    check_policy_against_catalog(cp)
    trace = make_trace(seed, max_apps=2, max_events=80)
    assert_same_as_one_rule_batches(cp, trace)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists())
def test_random_policy_request_facts_match_the_sent_rules(rule_list):
    cp = validate_policy(parse_policy(policy_source(rule_list)))
    assume(isinstance(cp, CompiledPolicy))
    assert_request_facts(cp)
