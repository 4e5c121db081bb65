"""The central monitor's replies against the by-rule semantics.

A request that names a batch's full rule ids with that batch's truth keys
is answered by the batch's generated central function, and any other by
the central monitor's loop over the rules it names. Either way the reply
and the state must be what the by-rule loop below gives: each named rule
checked for being unknown and for a stale truth map, then its GlobalSide
conditions, its guard and its GlobalSide actions, every body run by the
tree interpreter of `reference_eval.py`.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon.central_monitor import APP_TO_CENTRAL, CentralMonitor, GlobalState, MonitorReply, MonitorRequest, snapshot
from dcmon.corpus import CORPUS_IDS, build_policy_source, compile_corpus_policy
from dcmon.dsl import parse_policy, validate_policy
from dcmon.engine import CompiledPolicy, Locality
from dcmon.lang.eval import GLOBAL_SIDE, EvalContext, EvalError, rollback
from dcmon.lang.values import MS_PER_HOUR, MS_PER_SECOND
from dcmon.sim import run
from dcmon.tracegen import make_bench_trace, make_trace

from conftest import sends_every
from reference_eval import eval_expr, exec_stmts
from test_batch_plan import APP_FAULT_SRC, CENTRAL_FAULT_SRC, policy_source, rule_lists
from test_closures import guard_value
from test_monitors import FORWARDING_SRC


def reference_reply(cp: CompiledPolicy, spec, gs: GlobalState, req: MonitorRequest) -> MonitorReply:
    """The reply to `req`, rule by rule, with `gs` written in place."""
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    n = len(cp.rules)
    rules = [cp.rules[rid] if 0 <= rid < n else None for rid in req.rule_id]
    expected = {cid for rule in rules if rule is not None for cid in rule.app_condition_ids}
    stale = expected != req.appside_truth.keys()
    ctx = EvalContext(GLOBAL_SIDE, req.t, None, None, req.forwarded_bindings, None, gs.vars, gs.attrs)
    truth = dict(req.appside_truth)
    guards, actions, faults = [], [], []
    for rule in rules:
        guard, fault = False, None
        if rule is None:
            fault = "UnknownRule"
        elif stale:
            fault = "StaleTruthMap"
        else:
            try:
                for cid in rule.global_condition_ids:
                    if cid not in truth:
                        truth[cid] = bool(eval_expr(spec.conditions[cid].body, ctx, cp.state_types))
                guard = guard_value(spec.rules[rule.rule_id].guard, cond_ids, truth)
                if guard and rule.global_action_ids:
                    truth = dict(req.appside_truth)
                    for aid in rule.global_action_ids:
                        exec_stmts(spec.actions[aid].body, ctx, cp.state_types)
                    ctx.undo.clear()
            except EvalError as ex:
                rollback(ctx.undo)
                guard, fault = False, f"EvalFault:{ex}"
        guards.append(guard)
        actions.append(rule.app_action_ids if guard else ())
        faults.append(fault)
    return MonitorReply(req.seq, req.app_id, req.rule_id, req.t, tuple(guards), tuple(actions), tuple(faults))


def expected_truth(cp: CompiledPolicy, rule_ids) -> dict:
    return {cid: True for rid in rule_ids for cid in cp.rules[rid].app_condition_ids}


def variants(cp: CompiledPolicy, req: MonitorRequest):
    """`req`, then requests that no local monitor sends: its rules but the
    last, with the truth keys they expect; its rules reversed; its rules
    and an unknown id; its rules and a negative id, which must not index
    from the end; its rules with the first named twice; its truth map with
    one key more; and each LocalOnly rule named alone."""
    def like(rule_ids, truth):
        return MonitorRequest(req.seq, req.app_id, tuple(rule_ids), req.t, truth, req.forwarded_bindings)

    yield req
    if len(req.rule_id) > 1:
        yield like(req.rule_id[:-1], {cid: req.appside_truth.get(cid, True)
                                      for cid in expected_truth(cp, req.rule_id[:-1])})
        yield like(req.rule_id[::-1], req.appside_truth)
    yield like(req.rule_id + (len(cp.rules),), req.appside_truth)
    yield like(req.rule_id + (-1,), req.appside_truth)
    yield like(req.rule_id + req.rule_id[:1], req.appside_truth)
    yield like(req.rule_id, {**req.appside_truth, len(cp.conditions): True})
    for rule in cp.rules:
        if rule.locality is Locality.LOCAL_ONLY:
            yield like((rule.rule_id,), expected_truth(cp, (rule.rule_id,)))


def assert_steps_match(cp: CompiledPolicy, spec, requests, initial: GlobalState) -> list:
    """Hand each request to a central monitor and to the by-rule loop, each
    over its own copy of `initial`; return the replies."""
    gs, reference_gs = initial.copy(), initial.copy()
    central = CentralMonitor(cp, gs)
    replies = []
    for req in requests:
        got = central.handle_request(req)
        assert got == reference_reply(cp, spec, reference_gs, req), req
        assert snapshot(gs) == snapshot(reference_gs), req
        replies.append(got)
    return replies


def logged_requests(res) -> list:
    return [e for e in res.channel_entries if e.direction == APP_TO_CENTRAL]


@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_corpus_requests_run_like_the_by_rule_loop(pid):
    cp = compile_corpus_policy(pid)
    spec = parse_policy(build_policy_source(pid))
    res = run(make_bench_trace(per_kind=120), cp)
    requests = logged_requests(res)
    assert_steps_match(cp, spec, requests, res.initial_global)
    assert_steps_match(cp, spec, [v for req in requests for v in variants(cp, req)], res.initial_global)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000))
def test_random_policy_requests_run_like_the_by_rule_loop(rule_list, seed):
    # the pools hold conditions and actions that fault
    spec = parse_policy(policy_source(rule_list))
    cp = validate_policy(spec)
    assume(isinstance(cp, CompiledPolicy))
    res = run(make_trace(seed, max_apps=2, max_events=80), cp)
    requests = [v for req in logged_requests(res) for v in variants(cp, req)]
    assert_steps_match(cp, spec, requests, res.initial_global)


def full_requests(cp: CompiledPolicy, times, bindings=None, truth=None) -> list:
    (rule_ids,) = cp.requests
    return [
        MonitorRequest(seq, "Messenger", rule_ids, t, dict(truth or {}), dict(bindings or {}))
        for seq, t in enumerate(times)
    ]


CASES = {
    # a global condition that faults mid-batch
    "global_condition_faults": (CENTRAL_FAULT_SRC, lambda cp: full_requests(cp, range(4)),
                                lambda r: r.faults[1] == "EvalFault:DivisionByZero" and r.faults[0] is None),
    # a global action that faults, after the batch's earlier rules wrote
    "global_action_faults": (FORWARDING_SRC,
                             lambda cp: full_requests(cp, (0, 2 * MS_PER_HOUR), {"dest": "+35621123456"}),
                             lambda r: r.faults == (None, None, "EvalFault:DivisionByZero")),
    # a shorter tuple: the local monitor drops inverseDeny when `inverse`
    # faults on the first send
    "shorter_tuple": (APP_FAULT_SRC, None, lambda r: len(r.rule_id) == 3 and r.faults == (None,) * 3),
    # an unknown id beside a batch's rules
    "unknown_id": (CENTRAL_FAULT_SRC,
                   lambda cp: [MonitorRequest(0, "Messenger", (0, 99, 2), 0, {}, {})],
                   lambda r: r.faults == (None, "UnknownRule", None) and r.guard_results == (True, False, False)),
    # a batch's full tuple with a truth map it does not expect
    "stale_truth_map": (CENTRAL_FAULT_SRC, lambda cp: full_requests(cp, range(2), truth={0: True}),
                        lambda r: r.faults == ("StaleTruthMap",) * 4),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_kind_of_request_runs_like_the_by_rule_loop(case):
    src, requests_of, shows_case = CASES[case]
    spec = parse_policy(src)
    cp = validate_policy(spec)
    if requests_of is None:
        requests = logged_requests(run(sends_every(MS_PER_SECOND, 4), cp))
    else:
        requests = requests_of(cp)
    replies = assert_steps_match(cp, spec, requests, GlobalState.empty(cp.global_kinds))
    assert any(map(shows_case, replies)), replies
