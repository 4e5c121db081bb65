"""Each batch's generated functions against the rule-by-rule loops.

`compile_policy` gives each batch a generated local function, which
`LocalMonitor.intercept` calls, and a batch that sends a request a
generated central function, which answers its full request. The loops are
their fault paths: the local function hands a batch to `_run_batch` only
when one of its app-side conditions faults, which adds a fault, and the
central monitor's `_run_rules` answers every other request. The same
policy with every batch's local function replaced by `conftest.by_rules`
hands each batch to `_run_batch`, against the same central side; with
both replaced, the two loops decide everything. All three must block the
same calls for the same reasons, raise the same faults and leave the same
local stores, device attributes, global state and channel log.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon.central_monitor import APP_TO_CENTRAL
from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.dsl import parse_policy, validate_policy
from dcmon.engine import Batch, CompiledPolicy
from dcmon.lang.values import MS_PER_HOUR, MS_PER_SECOND, VType
from dcmon.local_monitor import LocalMonitor
from dcmon.sim import run
from dcmon.tracegen import make_trace

from conftest import MSG_QUOTA_SRC, by_rules, compile_src, replan, send, sends_every
from test_batch_plan import (
    APP_FAULT_SRC,
    CENTRAL_FAULT_SRC,
    FORWARDED_FAULT_SRC,
    FORWARDED_SENDS,
    LOCAL_FIRST_SRC,
    TRACES,
    policy_source,
    rule_lists,
)
from test_monitors import APP_CONTEXT_SRC, FORWARDING_SRC


def rule_by_rule(cp: CompiledPolicy, keep_central: bool = True) -> CompiledPolicy:
    """The same policy with every batch decided by the local monitor's loop,
    and by the central monitor's loop too unless `keep_central`."""

    def plain(batch: Batch) -> Batch:
        out = by_rules(batch.rules)
        if keep_central:
            out.central = batch.central
        return out

    return replan(cp, lambda plan: tuple(map(plain, plan)))


def assert_like_rule_by_rule(cp: CompiledPolicy, trace, **kwargs):
    batches = [b for plans in cp.dispatch.values() for plan in plans for b in plan]
    assert all(b.local is not None for b in batches)
    handed_over = []
    run_batch = LocalMonitor._run_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LocalMonitor, "_run_batch", lambda *args: handed_over.append(args[1]) or run_batch(*args))
        got = run(trace, cp, **kwargs)
    assert len(handed_over) <= sum(f.startswith("EvalError:") for _, f in got.faults)
    for reference in (rule_by_rule(cp), rule_by_rule(cp, keep_central=False)):
        want = run(trace, reference, **kwargs)
        assert got.verdict_lines() == want.verdict_lines()
        assert got.faults == want.faults
        assert got.local_states == want.local_states
        assert got.device.attrs == want.device.attrs
        assert got.snapshot == want.snapshot
        assert got.channel_lines() == want.channel_lines()
    return got


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "down"])
@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_corpus_local_functions_decide_like_the_loop(pid, connected):
    cp = compile_corpus_policy(pid)
    for trace in TRACES:
        assert_like_rule_by_rule(cp, trace, channel_connected=connected)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000), st.booleans())
def test_random_local_functions_decide_like_the_loop(rule_list, seed, connected):
    # the pools hold conditions and actions that fault
    cp = validate_policy(parse_policy(policy_source(rule_list)))
    assume(isinstance(cp, CompiledPolicy))
    assert_like_rule_by_rule(cp, make_trace(seed, max_apps=2, max_events=80), channel_connected=connected)


def faults_named(fault):
    return lambda res: any(f == fault for _, f in res.faults)


def requests(res):
    return [e for e in res.channel_entries if e.direction == APP_TO_CENTRAL]


# a NeedsGlobal rule and a LocalOnly one in one batch
MIXED_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions {
    ApplicationSide { small = { local.n < 2 } }
    GlobalSide { always = { true } }
}
Actions {
    ApplicationSide { bump = { local.n := local.n + 1; } }
    GlobalSide { count = { global.sends := global.sends + 1; } }
}
Rules {
    countSend = sendB() | always -> count;
    bumpSmall = sendB() | small -> bump;
}
"""

HOME_SENDS = [send(0, dest="+35621123456"), send(2 * MS_PER_HOUR, dest="21234567"), send(3 * MS_PER_HOUR)]

CASES = {
    # `inverse` divides by local.n, 0 on the first send: the batch goes to
    # the loop, which drops inverseDeny from the request
    "app_condition_fault": (APP_FAULT_SRC, sends_every(MS_PER_SECOND, 3), {},
                            lambda res: res.faults[0] == (0, "EvalError:DivisionByZero")
                            and len(requests(res)[0].rule_id) == 3),
    # `crash` faults after a write, in a NeedsGlobal and in a LocalOnly batch
    "app_action_fault_needs_global": (APP_CONTEXT_SRC.replace(" OPEN", " && open"), HOME_SENDS, {},
                                      faults_named("EvalError:DivisionByZero")),
    "app_action_fault_local_only": (APP_CONTEXT_SRC.replace(" OPEN", ""), HOME_SENDS, {},
                                    lambda res: faults_named("EvalError:DivisionByZero")(res) and not res.channel_entries),
    # a LocalOnly rule decided beside a NeedsGlobal rule that the channel
    # cannot reach: it still counts the first two sends
    "channel_down": (MIXED_SRC, sends_every(MS_PER_SECOND, 3), {"channel_connected": False},
                     lambda res: res.faults == [(i, "ChannelError") for i in range(3)]
                     and res.local_states["Messenger"].get("n", VType.INT) == 2),
    # a reply with a fault is decided by the loop
    "central_fault": (CENTRAL_FAULT_SRC, sends_every(MS_PER_SECOND, 4), {}, faults_named("EvalFault:DivisionByZero")),
    # a blocking LocalOnly rule ahead of NeedsGlobal rules, one of whose
    # conditions faults on the first send
    "local_rule_first": (LOCAL_FIRST_SRC, sends_every(MS_PER_SECOND, 5), {},
                         lambda res: ("Blocked", "localDeny") in [(v.decision, v.reason) for v in res.verdicts]),
    # `dest` is forwarded by position
    "forwarded_binding": (FORWARDING_SRC, HOME_SENDS, {},
                          lambda res: requests(res)[0].forwarded_bindings == {"dest": "+35621123456"}),
    # `successful` reads the after phase's uponReturning(sent)
    "return_binding": (MSG_QUOTA_SRC, sends_every(MS_PER_SECOND, 3), {},
                       lambda res: any(r.appside_truth == {1: True} for r in requests(res))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_case_decides_like_the_loop(case):
    src, trace, kwargs, shows_case = CASES[case]
    got = assert_like_rule_by_rule(compile_src(src), trace, **kwargs)
    assert shows_case(got), (got.faults, got.verdict_lines(), got.channel_lines())


@pytest.mark.parametrize(
    "src, trace",
    [(APP_FAULT_SRC, sends_every(MS_PER_SECOND, 6)), (FORWARDED_FAULT_SRC, FORWARDED_SENDS)],
    ids=["app_fault", "forwarded_fault"],
)
def test_a_partial_request_builds_no_batch(src, trace):
    # an app-side condition faults on some sends, and the loop sends the
    # unfaulted rules: `plan_batches` builds every batch before the run
    cp = compile_src(src)
    built = []
    init = Batch.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Batch, "__init__", lambda self, rules: built.append(rules) or init(self, rules))
        res = run(trace, cp)
    assert built == []
    assert any(r.rule_id not in cp.requests for r in requests(res))
