import ast
import itertools
import random
import re
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon import central_monitor, local_monitor
from dcmon.corpus import CORPUS_IDS, build_policy_source, compile_corpus_policy
from dcmon.dsl import Phase, guard_refs, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy, Locality, evaluate_guard, rules_for
from dcmon.lang import codegen
from dcmon.lang.nodes import Binary, Literal, Unary, VarRef
from dcmon.lang.values import MS_PER_SECOND, VType
from dcmon.sim import run
from dcmon.tracegen import make_bench_trace, make_trace

from conftest import EMPTY_SRC, by_rules, compile_src, generate, phase_plans, plan_rules, replan, sends_every
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


def compile_guard(guard, cond_ids):
    """`code(truth) -> bool` for `guard`, as `compile_policy` writes it."""
    return generate(lambda module: module.guard(guard, cond_ids))


def test_guard_not_and():
    g = compile_guard(Binary("&&", Unary("!", VarRef("cond", "a")), VarRef("cond", "b")), {"a": 0, "b": 1})
    assert evaluate_guard(g, {0: False, 1: True}) is True
    assert evaluate_guard(g, {0: True, 1: True}) is False


A = VarRef("cond", "a")


def test_lower_guard_maps_guard_operators():
    # compile_guard lowers a guard expression to a function of truth values
    guard = compile_guard(Binary("||", Unary("!", A), Binary("&&", A, VarRef("cond", "b"))), {"a": 0, "b": 1})
    for a, b in itertools.product((False, True), repeat=2):
        assert guard({0: a, 1: b}) is ((not a) or (a and b))


def test_lower_guard_short_circuits():
    # the right operand is never read when the left decides
    assert compile_guard(Binary("&&", A, VarRef("cond", "b")), {"a": 0, "b": 1})({0: False}) is False
    assert compile_guard(Binary("||", A, VarRef("cond", "b")), {"a": 0, "b": 1})({0: True}) is True


@pytest.mark.parametrize(
    "node",
    [Binary("==", A, A), Binary("+", A, A), Unary("-", A), VarRef("event", "a"), Literal(VType.BOOL, True)],
    ids=["eq", "plus", "minus", "event_ref", "literal"],
)
def test_lower_guard_rejects_other_nodes(node):
    with pytest.raises(AssertionError):
        compile_guard(Binary("&&", A, node), {"a": 0})


# every guard run() reaches has a truth value for each condition it names
#
# A batch built by `compile_policy` is decided by its two generated
# functions, whose guards are inlined over truth values held in locals:
# their source is checked statically. The monitors' rule-by-rule loops
# call `evaluate_guard`, which is checked at run time on the same policies
# with batches that `conftest.by_rules` hands to those loops.

def guard_cond_ids(cp, spec):
    """Each compiled guard of `cp` mapped to the ids of the conditions that
    its expression in `spec` names."""
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    return {code: {cond_ids[r.name] for r in guard_refs(rule.guard)} for code, rule in zip(cp.guard_code, spec.rules)}


def generic_batches(cp):
    """The same policy with every batch decided by the rule-by-rule loops."""
    return replan(cp, lambda plan: tuple(by_rules(b.rules) for b in plan))


@contextmanager
def guards_checked_for_truth_values(refs):
    """Both monitors' evaluate_guard, failing on a guard that names a
    condition without a truth value; `refs` maps each guard to the ids it
    names, see `guard_cond_ids`. Yields the list of guards checked."""
    checked = []

    def checking(guard, truth):
        missing = refs[guard] - truth.keys()
        assert not missing, f"guard {guard!r} has no truth value for {sorted(missing)}"
        checked.append(guard)
        return evaluate_guard(guard, truth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_monitor, "evaluate_guard", checking)
        mp.setattr(central_monitor, "evaluate_guard", checking)
        yield checked


def generated_sources(src):
    """What `validate_policy` returns for `src`, and the source it
    compiled: one module for a policy, nothing for a list of errors."""
    sources = []

    def keeping(*args, **kwargs):
        sources.append(args[0])
        return compile(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen, "compile", keeping, raising=False)
        cp = validate_policy(parse_policy(src))
    assert len(sources) == isinstance(cp, CompiledPolicy)
    return cp, "".join(sources)


TRUTH_VALUE = re.compile(r"c\d+")


def truth_reads(node):
    """The truth-value locals `node` reads, besides a test `cX is None`."""
    if isinstance(node, ast.Compare) and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value is None:
        return set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and TRUTH_VALUE.fullmatch(node.id):
        return {node.id}
    return set().union(*map(truth_reads, ast.iter_child_nodes(node)))


def evaluated_into(stmt):
    """`cX` if `stmt` is `cX = not not eval_expr(cc[X], ctx)`, else None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
        name = stmt.targets[0].id
        if ast.unparse(stmt.value) == f"not not eval_expr(cc[{name[1:]}], ctx)":
            return name
    return None


def check_reads(stmts, valid, where):
    """Walk `stmts` in order with `valid`, the truth-value locals known to
    hold their condition's value; fail on a read of any other. Returns the
    locals known valid after `stmts`."""
    valid = set(valid)
    for stmt in stmts:
        if isinstance(stmt, ast.Try):
            after = check_reads(stmt.body, valid, where)
            for handler in stmt.handlers:
                check_reads(handler.body, valid, where)
            # a handler that returns leaves the try's values behind it
            if all(isinstance(h.body[-1], ast.Return) for h in stmt.handlers):
                valid = after
            continue
        if isinstance(stmt, ast.If):
            unread = truth_reads(stmt.test) - valid
            assert not unread, f"{where}: `{ast.unparse(stmt.test)}` reads {sorted(unread)} unevaluated"
            body = check_reads(stmt.body, valid, where)
            orelse = check_reads(stmt.orelse, valid, where)
            # `if cX is None: cX = ...` leaves cX evaluated on both paths
            valid = (body & orelse) | {n for n in map(evaluated_into, stmt.body) if n and not stmt.orelse}
            continue
        unread = truth_reads(stmt) - valid - {evaluated_into(stmt)}
        assert not unread, f"{where}: `{ast.unparse(stmt)}` reads {sorted(unread)} unevaluated"
        name = evaluated_into(stmt)
        if name is not None:
            valid.add(name)
        elif isinstance(stmt, ast.Assign):
            valid -= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return valid


def assert_batch_guards_read_evaluated_values(cp, source):
    """Every guard and truth map in each batch function of `cp` reads only
    truth values that the function evaluated before it, and that no
    GlobalSide action reset since; each app-side value it reads is a key
    of the request's truth map."""
    functions = {node.name: node for node in ast.parse(source).body}
    batches = [b for plans in cp.dispatch.values() for plan in plans for b in plan]
    assert batches and all(b.local is not None and (b.central is not None) == bool(b.sent) for b in batches)
    for batch in batches:
        for fn in filter(None, (batch.local, batch.central)):
            tree = functions[fn.__name__]
            check_reads(tree.body, set(), fn.__name__)
            read = {node.slice.value for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "app"}
            assert read <= batch.truth_keys, (fn.__name__, read)


def test_batch_guard_check_fails_a_guard_whose_condition_is_not_evaluated():
    # the check itself: WiFiLmt's guard `c0 and c1` with c1 never evaluated
    cp, source = generated_sources(build_policy_source("WiFiLmt"))
    assert_batch_guards_read_evaluated_values(cp, source)
    broken = source.replace("        c1 = not not eval_expr(cc[1], ctx)\n", "", 1)
    assert broken != source
    with pytest.raises(AssertionError, match=r"reads \['c1'\] unevaluated"):
        assert_batch_guards_read_evaluated_values(cp, broken)


def test_every_generated_guard_reads_evaluated_truth_values():
    for src in [build_policy_source(pid) for pid in CORPUS_IDS] + [CENTRAL_FAULT_SRC]:
        assert_batch_guards_read_evaluated_values(*generated_sources(src))


@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_every_corpus_guard_sees_all_its_truth_values(concurrent_same_t):
    trace = make_bench_trace(per_kind=120)
    policies = [(compile_corpus_policy(pid), parse_policy(build_policy_source(pid))) for pid in CORPUS_IDS]
    fault_spec = parse_policy(CENTRAL_FAULT_SRC)
    fault_cp = validate_policy(fault_spec)
    refs = {}
    for cp, spec in policies + [(fault_cp, fault_spec)]:
        refs.update(guard_cond_ids(cp, spec))
    with guards_checked_for_truth_values(refs) as checked:
        for cp, _ in policies:
            run(trace, generic_batches(cp), concurrent_same_t=concurrent_same_t)
        # a global condition that faults on every send, before its guard runs
        res = run(sends_every(MS_PER_SECOND, 4), generic_batches(fault_cp), concurrent_same_t=concurrent_same_t)
    assert res.faults and checked


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000), st.booleans())
def test_every_random_guard_sees_all_its_truth_values(rule_list, seed, concurrent_same_t):
    # the pools hold conditions and actions that fault
    cp, source = generated_sources(policy_source(rule_list))
    assume(isinstance(cp, CompiledPolicy))
    assert_batch_guards_read_evaluated_values(cp, source)
    spec = parse_policy(policy_source(rule_list))
    with guards_checked_for_truth_values(guard_cond_ids(cp, spec)):
        run(make_trace(seed, max_apps=2, max_events=80), generic_batches(cp), concurrent_same_t=concurrent_same_t)


def _random_guard(rng, depth, n_conds):
    if depth == 0 or rng.random() < 0.3:
        return VarRef("cond", f"c{rng.randrange(n_conds)}")
    pick = rng.random()
    if pick < 0.25:
        return Unary("!", _random_guard(rng, depth - 1, n_conds))
    op = "&&" if pick < 0.65 else "||"
    return Binary(op, _random_guard(rng, depth - 1, n_conds), _random_guard(rng, depth - 1, n_conds))


def _brute(g, truth):
    if isinstance(g, VarRef):
        return truth[int(g.name[1:])]
    if isinstance(g, Unary):
        return not _brute(g.operand, truth)
    if g.op == "&&":
        return _brute(g.left, truth) and _brute(g.right, truth)
    return _brute(g.left, truth) or _brute(g.right, truth)


def test_random_guards_against_truth_tables():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 4)
        g = _random_guard(rng, 4, n)
        guard = compile_guard(g, {f"c{i}": i for i in range(n)})
        for values in itertools.product((False, True), repeat=n):
            truth = dict(enumerate(values))
            assert evaluate_guard(guard, truth) is _brute(g, truth)
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
