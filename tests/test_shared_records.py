"""The channel log's records share their batch's maps and tuples.

Each batch that sends keeps one truth map per vector of truth values, in
`truths`, and one `(guard_results, appside_actions_to_run)` pair per
vector of guard bits, in `outcomes`; its generated functions fill both on
first use, and every empty truth or forwarded map the monitors send is
the one `EMPTY`. Sharing must change no record's content: after every
reader of the log has run, each shared map and pair still holds what its
key says, and requests and replies that no generated function builds,
after an app-side condition faults or with a rule faulted, hold their own
correct content.
"""

import pytest

from dcmon.central_monitor import APP_TO_CENTRAL, GlobalState, check_asymmetry, replay_requests, snapshot
from dcmon.corpus import build_policy_source
from dcmon.dsl import parse_policy, validate_policy
from dcmon.lang.channel import EMPTY
from dcmon.lang.values import MS_PER_SECOND
from dcmon.sim import run
from dcmon.tracegen import make_bench_trace

from conftest import sends_every
from test_batch_plan import APP_FAULT_SRC, CENTRAL_FAULT_SRC
from test_central_steps import reference_reply

SHARING_IDS = ("OneHrPerSittingOnly", "MsgCntLmtHr")


@pytest.fixture(scope="module")
def replays():
    """Each policy, compiled afresh so that its tables hold this replay's
    entries only, and its run over the bench trace."""
    trace = make_bench_trace(per_kind=120)
    out = {}
    for pid in SHARING_IDS:
        cp = validate_policy(parse_policy(build_policy_source(pid)))
        out[pid] = cp, run(trace, cp)
    return out


def split(res):
    """The logged (request, reply) pairs."""
    entries = res.channel_entries
    assert [e.direction for e in entries[::2]] == [APP_TO_CENTRAL] * (len(entries) // 2)
    return list(zip(entries[::2], entries[1::2]))


@pytest.mark.parametrize("pid", SHARING_IDS)
def test_replies_with_equal_guard_results_share_their_tuples(replays, pid):
    cp, res = replays[pid]
    first = {}
    for req, reply in split(res):
        key = req.rule_id, reply.guard_results
        seen = first.setdefault(key, reply)
        assert reply.guard_results is seen.guard_results
        assert reply.appside_actions_to_run is seen.appside_actions_to_run
    # most replies repeat an earlier outcome
    assert len(first) < len(res.channel_entries) // 20


def test_requests_with_equal_truth_values_share_their_map(replays):
    cp, res = replays["MsgCntLmtHr"]
    first = {}
    for req, _ in split(res):
        batch = cp.requests[req.rule_id]
        key = req.rule_id, tuple(req.appside_truth[cid] for cid in batch.truth_ids)
        assert req.appside_truth is first.setdefault(key, req.appside_truth)
    assert any(key[1] for key in first)  # some truth maps are not empty
    assert len(first) < len(split(res)) // 20


@pytest.mark.parametrize("pid", SHARING_IDS)
def test_every_empty_map_in_the_log_is_the_shared_one(replays, pid):
    _, res = replays[pid]
    requests = [req for req, _ in split(res)]
    assert requests
    for req in requests:
        assert req.appside_truth or req.appside_truth is EMPTY
        assert req.forwarded_bindings or req.forwarded_bindings is EMPTY


@pytest.mark.parametrize("pid", SHARING_IDS)
def test_shared_maps_survive_every_reader_of_the_log(replays, pid):
    cp, res = replays[pid]
    # the device's own attribute writes are not channel traffic
    replayed = replay_requests(cp, res.channel_entries, res.initial_global)
    assert snapshot(GlobalState(replayed.vars, res.global_state.attrs)) == res.snapshot
    assert check_asymmetry(res.channel_entries) == []
    assert res.channel_lines().count("\n") == len(res.channel_entries)
    assert EMPTY == {}
    filled = 0
    for batch in cp.requests.values():
        for key, truth in batch.truths.items():
            assert truth == dict(zip(batch.truth_ids, key))
        for bits, (guards, actions) in batch.outcomes.items():
            assert guards == bits
            assert actions == tuple(r.app_action_ids if bit else () for r, bit in zip(batch.sent, bits))
        filled += len(batch.truths) + len(batch.outcomes)
    assert filled


def assert_replies_match_the_reference(spec, cp, res):
    """Every logged reply is the by-rule loop's reply to its request."""
    gs = res.initial_global.copy()
    for req, reply in split(res):
        assert reply == reference_reply(cp, spec, gs, req), req


def test_a_request_after_an_app_side_fault_logs_its_own_content():
    # `inverse` faults on the first send only: that request names three of
    # the four rules, with a truth map of `small` alone
    spec = parse_policy(APP_FAULT_SRC)
    cp = validate_policy(spec)
    res = run(sends_every(MS_PER_SECOND, 3), cp)
    (full,) = cp.requests.values()
    pairs = split(res)
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    first, _ = pairs[0]
    assert first.rule_id == (0, 2, 3)
    assert first.appside_truth == {cond_ids["small"]: True}
    assert all(first.appside_truth is not shared for shared in full.truths.values())
    assert [req.rule_id for req, _ in pairs[1:]] == [full.rule_ids] * 2
    assert_replies_match_the_reference(spec, cp, res)


def test_a_reply_in_which_a_rule_faulted_logs_its_own_content():
    # `broken` faults on every send, in the batch's generated function
    spec = parse_policy(CENTRAL_FAULT_SRC)
    cp = validate_policy(spec)
    res = run(sends_every(MS_PER_SECOND, 4), cp)
    faulted = [reply for _, reply in split(res) if reply.fault is not None]
    assert len(faulted) == 4
    assert all(reply.fault == "EvalFault:DivisionByZero" for reply in faulted)
    assert_replies_match_the_reference(spec, cp, res)
