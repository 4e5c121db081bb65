import itertools
import random
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon import central_monitor, local_monitor
from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.dsl import Phase, parse_policy, validate_policy
from dcmon.engine import (
    CompiledPolicy,
    Locality,
    _lower_guard,
    evaluate_guard,
    rules_for,
)
from dcmon.lang.nodes import Binary, Literal, Unary, VarRef
from dcmon.lang.values import MS_PER_SECOND, VType
from dcmon.sim import check_policy_against_catalog, run
from dcmon.tracegen import make_bench_trace, make_trace

from conftest import EMPTY_SRC, compile_src, phase_plans, plan_rules, sends_every
from test_batch_plan import CENTRAL_FAULT_SRC, policy_source, rule_lists


def test_msg_quota_dispatch(msg_quota_policy):
    cp = msg_quota_policy
    assert set(cp.dispatch) == {("SmsManager", "sendTextMessage")}
    before_rules = plan_rules(rules_for(cp, "SmsManager", "sendTextMessage", Phase.BEFORE))
    after_rules = plan_rules(rules_for(cp, "SmsManager", "sendTextMessage", Phase.AFTER))
    assert [r.rule_id for r in before_rules] == [0]
    assert [r.rule_id for r in after_rules] == [1]
    assert all(r.locality is Locality.NEEDS_GLOBAL for r in cp.rules)


def test_wifi_listing_local_only(wifi_listing_policy):
    cp = wifi_listing_policy
    assert set(cp.dispatch) == {("WifiManager", "setWifiEnabled")}
    (rule,) = plan_rules(rules_for(cp, "WifiManager", "setWifiEnabled", Phase.BEFORE))
    assert rules_for(cp, "WifiManager", "setWifiEnabled", Phase.AFTER) == ()
    assert rule.locality is Locality.LOCAL_ONLY
    assert rule.blocks


def test_empty_policy_empty_dispatch():
    cp = compile_src(EMPTY_SRC)
    assert cp.dispatch == {}


def test_unmatched_call_returns_empty(msg_quota_policy):
    assert rules_for(msg_quota_policy, "Camera", "takePicture", Phase.BEFORE) == ()


def test_rules_in_declaration_order():
    src = """
    Events { ApplicationSide { e() = { SmsManager *.sendTextMessage(...) } } }
    Conditions { ApplicationSide { c = { true } } }
    Actions { ApplicationSide { a1 = { } a2 = { } } }
    Rules {
        first = e() | c -> a1;
        second = e() | !c -> a2;
        third = e() | c -> a2;
    }
    """
    cp = compile_src(src)
    names = [r.name for r in plan_rules(rules_for(cp, "SmsManager", "sendTextMessage", Phase.BEFORE))]
    assert names == ["first", "second", "third"]


def test_dispatch_lookup_equals_linear_scan():
    for pid in CORPUS_IDS:
        cp = compile_corpus_policy(pid)
        keys = {
            (e.pattern.api_namespace, e.pattern.method, e.phase) for e in cp.events
        } | {("Camera", "takePicture", Phase.BEFORE)}
        for key in keys:
            scan = [
                r
                for r in cp.rules
                if (
                    cp.events[r.trigger_id].pattern.api_namespace,
                    cp.events[r.trigger_id].pattern.method,
                    cp.events[r.trigger_id].phase,
                ) == key
            ]
            assert plan_rules(rules_for(cp, *key)) == scan


def test_every_rule_under_exactly_one_key():
    for pid in CORPUS_IDS:
        cp = compile_corpus_policy(pid)
        seen = [r.rule_id for plan in phase_plans(cp).values() for r in plan_rules(plan)]
        assert sorted(seen) == [r.rule_id for r in cp.rules]


def test_guard_not_and():
    g = ("and", ("not", ("ref", 0)), ("ref", 1))
    assert evaluate_guard(g, {0: False, 1: True}) is True
    assert evaluate_guard(g, {0: True, 1: True}) is False


A = VarRef("cond", "a")


def test_lower_guard_maps_guard_operators():
    guard = Binary("||", Unary("!", A), Binary("&&", A, VarRef("cond", "b")))
    assert _lower_guard(guard, {"a": 0, "b": 1}) == ("or", ("not", ("ref", 0)), ("and", ("ref", 0), ("ref", 1)))


@pytest.mark.parametrize(
    "node",
    [Binary("==", A, A), Binary("+", A, A), Unary("-", A), VarRef("event", "a"), Literal(VType.BOOL, True)],
    ids=["eq", "plus", "minus", "event_ref", "literal"],
)
def test_lower_guard_rejects_other_nodes(node):
    with pytest.raises(AssertionError):
        _lower_guard(Binary("&&", A, node), {"a": 0})


# every guard run() reaches has a truth value for each condition it names

def _refs(guard):
    if guard[0] == "ref":
        yield guard[1]
    else:
        for sub in guard[1:]:
            yield from _refs(sub)


@contextmanager
def guards_checked_for_truth_values():
    """Both monitors' evaluate_guard, failing on a guard that names a
    condition without a truth value. Yields the list of guards checked."""
    checked = []

    def checking(guard, truth):
        missing = set(_refs(guard)) - truth.keys()
        assert not missing, f"guard {guard!r} has no truth value for {sorted(missing)}"
        checked.append(guard)
        return evaluate_guard(guard, truth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_monitor, "evaluate_guard", checking)
        mp.setattr(central_monitor, "evaluate_guard", checking)
        yield checked


@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_every_corpus_guard_sees_all_its_truth_values(concurrent_same_t):
    trace = make_bench_trace(per_kind=120)
    with guards_checked_for_truth_values() as checked:
        for pid in CORPUS_IDS:
            run(trace, compile_corpus_policy(pid), concurrent_same_t=concurrent_same_t)
        # a global condition that faults on every send, before its guard runs
        res = run(sends_every(MS_PER_SECOND, 4), compile_src(CENTRAL_FAULT_SRC), concurrent_same_t=concurrent_same_t)
    assert res.faults and checked


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000), st.booleans())
def test_every_random_guard_sees_all_its_truth_values(rule_list, seed, concurrent_same_t):
    # the pools hold conditions and actions that fault
    cp = validate_policy(parse_policy(policy_source(rule_list)))
    assume(isinstance(cp, CompiledPolicy))
    check_policy_against_catalog(cp)
    with guards_checked_for_truth_values():
        run(make_trace(seed, max_apps=2, max_events=80), cp, concurrent_same_t=concurrent_same_t)


def _random_guard(rng, depth, n_conds):
    if depth == 0 or rng.random() < 0.3:
        return ("ref", rng.randrange(n_conds))
    pick = rng.random()
    if pick < 0.25:
        return ("not", _random_guard(rng, depth - 1, n_conds))
    op = "and" if pick < 0.65 else "or"
    return (op, _random_guard(rng, depth - 1, n_conds), _random_guard(rng, depth - 1, n_conds))


def _brute(g, truth):
    tag = g[0]
    if tag == "ref":
        return truth[g[1]]
    if tag == "not":
        return not _brute(g[1], truth)
    if tag == "and":
        return _brute(g[1], truth) and _brute(g[2], truth)
    return _brute(g[1], truth) or _brute(g[2], truth)


def test_random_guards_against_truth_tables():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 4)
        g = _random_guard(rng, 4, n)
        for values in itertools.product((False, True), repeat=n):
            truth = dict(enumerate(values))
            assert evaluate_guard(g, truth) == _brute(g, truth)
            checked += 1


def test_forwarded_params_cover_global_references():
    src = """
    Events { ApplicationSide {
        e(bool sent) = { after SmsManager *.sendTextMessage(string dest, string body) } uponReturning(sent)
    } }
    Conditions { GlobalSide { toVip = { starts_with(event.dest, "+356999") && event.sent == true } } }
    Actions { GlobalSide { note = { global.n := global.n + 1; } } }
    Rules { e() | toVip -> note; }
    """
    cp = compile_src(src)
    assert cp.rules[0].forwarded_params == ("dest", "sent")


def test_locality_is_local_iff_all_parts_app_side():
    from dcmon.corpus import compile_corpus_policy
    from dcmon.dsl import Side

    for pid in ("WiFiLmt", "MsgCntLmt", "OneHrPerSittingOnly", "PhoneExtBlk"):
        cp = compile_corpus_policy(pid)
        for rule in cp.rules:
            parts_app = all(
                cp.conditions[cid].side is Side.APPLICATION
                for cid in rule.app_condition_ids + rule.global_condition_ids
            ) and all(
                cp.actions[aid].side is Side.APPLICATION for aid in rule.app_action_ids + rule.global_action_ids
            )
            assert (rule.locality is Locality.LOCAL_ONLY) == parts_app
