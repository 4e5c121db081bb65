"""Generated code against the tree interpreter it replaces.

The monitors run the functions that `compile_policy` generates as Python
source (`dcmon.lang.codegen`); the tree interpreter in `reference_eval.py`,
which `dcmon` does not ship, is the reference. In a context that the
monitor of the body's side builds, over state variables that validation
types and builtins called at their arity, an expression's code must return
what the interpreter returns, or raise what it raises. A run must give the same verdicts,
snapshot, channel log, faults, local state and arrival order as a copy of
its policy whose code slots run the interpreter and whose guards evaluate
the guard expressions directly.
"""

import dataclasses
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon.corpus import CORPUS_IDS, build_policy_source, compile_corpus_policy
from dcmon.dsl import PolicySpec, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy
from dcmon.lang import APP_SIDE, GLOBAL_SIDE, EvalContext, EvalError, VarStore, rollback
from dcmon.lang.nodes import (
    AppendStmt,
    Assign,
    Binary,
    BlockStmt,
    Call,
    Literal,
    PruneStmt,
    SetAttrStmt,
    Unary,
    VarRef,
    walk_exprs,
)
from dcmon.lang.values import INT64_MAX, INT64_MIN, MS_PER_SECOND, VType
from dcmon.sim import run
from dcmon.tracegen import make_bench_trace, make_trace

from conftest import by_rules, generate, replan, sends_every
from reference_eval import eval_expr, exec_stmts
from test_batch_plan import CENTRAL_FAULT_SRC, policy_source, rule_lists
from test_roundtrip import expressions_calling, own_arity, statements_over

expressions = expressions_calling(own_arity)
statements = statements_over(expressions)


def outcome(thunk):
    """What running `thunk` gives: its value and the value's type, or the
    exception's type and text, and an EvalError's code."""
    try:
        value = thunk()
    except EvalError as ex:
        return ("EvalError", ex.code, str(ex))
    except Exception as ex:
        return (type(ex).__name__, str(ex))
    return ("value", type(value), value)


# expressions

VALUES = {
    VType.BOOL: st.booleans(),
    VType.INT: st.one_of(st.integers(-20, 20), st.integers(INT64_MIN, INT64_MAX)),
    VType.STRING: st.text(alphabet="abz09+", max_size=4),
    VType.TIMESTAMP: st.integers(0, 10**10),
    VType.DURATION: st.integers(0, 10**10),
    # short, because the interpreter computes `xs * n` before its check
    VType.TS_LIST: st.lists(st.integers(0, 10**10), max_size=3).map(sorted),
}
KINDS = sorted(VALUES, key=str)
SCALARS = [kind for kind in KINDS if kind is not VType.TS_LIST]
scalar_value = st.sampled_from(SCALARS).flatmap(lambda kind: VALUES[kind])


def draw_context(data, nodes, targets=(), lists=(), scalars=()):
    """`(ctx, state_types)`: a context as the monitor of the side of the
    expressions or statements `nodes` builds one. A body that reads or
    writes local state, reads the app's name or id, or blocks is app-side;
    one that reads or writes global state is global-side, and validation
    rejects a body that is both. The app side has a local store, the
    attribute store, an app id and an app name; the global side has the
    global and attribute stores. `state_types` types every state variable
    that `nodes` read and each `(ns, name)` of `targets`: each of `lists`
    as a ts_list, each of `scalars` as a scalar, and the rest at random.
    Some are stored, with a random value of their kind, and the rest are
    unbound; so are some event parameters, each with a scalar value."""
    refs = {(v.ns, v.name) for node in nodes for v in walk_exprs(node) if isinstance(v, VarRef)}
    refs = sorted(refs | set(targets))
    app = any(isinstance(node, BlockStmt) for node in nodes) or any(
        ns == "local" or (ns, name) in (("ctx", "app_name"), ("ctx", "app_id")) for ns, name in refs
    )
    on_global = any(ns == "global" for ns, _ in refs)
    assume(not (app and on_global))
    side = APP_SIDE if app else GLOBAL_SIDE if on_global else data.draw(st.sampled_from([APP_SIDE, GLOBAL_SIDE]))
    state_types = {}
    kinds = {"local": {}, "global": {}, "attr": {}}
    stores = {ns: VarStore(table) for ns, table in kinds.items()}
    bindings = {}
    for ns, name in refs:
        if ns == "event":
            if data.draw(st.booleans()):
                bindings[name] = data.draw(scalar_value)
        elif ns in stores:
            if (ns, name) in lists:
                kind = VType.TS_LIST
            else:
                kind = data.draw(st.sampled_from(SCALARS if (ns, name) in scalars else KINDS))
            kinds[ns][name] = state_types[(ns, name)] = kind
            if data.draw(st.booleans()):
                stores[ns].set(name, data.draw(VALUES[kind]))
    now = data.draw(st.integers(0, 10**10))
    if side == APP_SIDE:
        app_id, app_name = data.draw(VALUES[VType.STRING]), data.draw(VALUES[VType.STRING])
        ctx = EvalContext(side, now, app_id, app_name, bindings, stores["local"], None, stores["attr"])
    else:
        ctx = EvalContext(side, now, None, None, bindings, None, stores["global"], stores["attr"])
    return ctx, state_types


@settings(max_examples=400, deadline=None)
@given(expressions, st.data())
def test_compiled_expression_matches_interpreter(e, data):
    ctx, state_types = draw_context(data, [e])
    code = generate(lambda module: module.expr(e), state_types)
    assert outcome(lambda: code(ctx)) == outcome(lambda: eval_expr(e, ctx, state_types))


def copied(ctx: EvalContext) -> EvalContext:
    """`ctx` over copies of its stores, with an empty undo log."""
    stores = [None if store is None else store.copy() for store in (ctx.local, ctx.global_vars, ctx.attrs)]
    return EvalContext(ctx.side, ctx.now, ctx.app_id, ctx.app_name, ctx.event_bindings, *stores)


def stores_of(ctx: EvalContext):
    return [ctx.local, ctx.global_vars, ctx.attrs]


@settings(max_examples=300, deadline=None)
@given(st.lists(statements, max_size=3), st.data())
def test_compiled_statements_match_interpreter(stmts, data):
    targets = {(s.ns, s.name) for s in stmts if isinstance(s, (Assign, AppendStmt, PruneStmt))}
    attrs = {("attr", s.attr) for s in stmts if isinstance(s, SetAttrStmt)}
    # an appended or pruned variable is a ts_list, and validation gives an
    # assigned variable its value's kind: a ts_list is assigned exactly a
    # ts_list variable, and the other variables an assignment ties are
    # scalars, as every attribute is
    lists = {(s.ns, s.name) for s in stmts if isinstance(s, (AppendStmt, PruneStmt))}
    assigned = [s for s in stmts if isinstance(s, Assign)]
    ties = [((s.ns, s.name), (s.value.ns, s.value.name) if isinstance(s.value, VarRef) else None) for s in assigned]
    for _ in stmts:
        lists |= {v for tie in ties if lists.intersection(tie) for v in tie}
    assume(all(v is not None and v[0] in ("local", "global") for v in lists))
    scalars = {v for tie in ties for v in tie} - lists
    ctx, state_types = draw_context(data, stmts, targets | attrs, lists, scalars | attrs)
    pre = [None if store is None else store.copy() for store in stores_of(ctx)]
    reference = copied(ctx)
    code = generate(lambda module: module.stmts(tuple(stmts)), state_types)
    assert outcome(lambda: code(ctx)) == outcome(lambda: exec_stmts(stmts, reference, state_types))
    # the same writes, whether or not a statement faulted, each logged once
    assert stores_of(ctx) == stores_of(reference)
    assert len(ctx.undo) == len(reference.undo)
    rollback(ctx.undo)
    assert stores_of(ctx) == pre


@pytest.mark.parametrize("stored", [False, True])
@pytest.mark.parametrize(
    "edit", [AppendStmt("global", "a", VarRef("ctx", "now")), PruneStmt("global", "a", Call("seconds", (Literal(VType.INT, 1),)))]
)
def test_list_assigned_and_edited_in_place(edit, stored):
    # an assignment copies global.b into global.a, so the edits after it
    # leave global.b as it was; rolling back undoes each edit's slice and
    # the assignment, in reverse order
    state_types = {("global", "a"): VType.TS_LIST, ("global", "b"): VType.TS_LIST}
    gv = VarStore({"a": VType.TS_LIST, "b": VType.TS_LIST})
    gv.set("b", [1_000, 5_000])
    if stored:
        gv.set("a", [4_000])
    ctx = EvalContext(GLOBAL_SIDE, 6_000, None, None, {}, None, gv, None)
    stmts = (edit, Assign("global", "a", VarRef("global", "b")), edit, edit)
    pre = gv.copy()
    reference = copied(ctx)
    code = generate(lambda module: module.stmts(stmts), state_types)
    assert outcome(lambda: code(ctx)) == outcome(lambda: exec_stmts(stmts, reference, state_types))
    assert stores_of(ctx) == stores_of(reference) and len(ctx.undo) == len(reference.undo)
    assert gv.get("b", VType.TS_LIST) == [1_000, 5_000]
    rollback(ctx.undo)
    assert gv == pre and ("a" in gv) is stored


def lit(n):
    return Literal(VType.BOOL if isinstance(n, bool) else VType.INT, n)


def neg(n):
    return Binary("-", lit(0), lit(n))


DIV_BY_ZERO = Binary("==", Binary("/", lit(1), lit(0)), lit(0))
# faults and their neighbours, as functions of one operand and its value
EDGE_CASES = [
    (lambda x: Binary("/", x, lit(2)), -7),
    (lambda x: Binary("/", x, neg(2)), 7),
    (lambda x: Binary("/", x, lit(0)), 1),
    (lambda x: Binary("/", x, neg(1)), INT64_MIN),
    (lambda x: Binary("/", x, lit(1)), INT64_MIN),
    (lambda x: Binary("*", x, lit(2)), 2**62),
    (lambda x: Binary("+", x, lit(1)), INT64_MAX),
    (lambda x: Binary("-", x, lit(1)), INT64_MIN),
    (lambda x: Call("minutes", (x,)), -1),
    (lambda x: Call("hours", (x,)), 2**62),
    (lambda x: Call("seconds", (x,)), 0),
    (lambda x: Call("count_within", (VarRef("global", "xs"), x)), -1),
    (lambda x: Call("count_within", (VarRef("global", "xs"), x)), 3_600_000),
    (lambda x: Binary("&&", Binary("==", x, lit(2)), DIV_BY_ZERO), 1),
    (lambda x: Binary("||", Binary("==", x, lit(1)), DIV_BY_ZERO), 1),
    # `&&`, `||` and `!` over a bool operand: on the left, short-circuiting
    # past a fault or not; on the right; and under `!`
    (lambda x: Binary("&&", x, DIV_BY_ZERO), False),
    (lambda x: Binary("||", x, DIV_BY_ZERO), True),
    (lambda x: Binary("&&", x, DIV_BY_ZERO), True),
    (lambda x: Binary("||", x, DIV_BY_ZERO), False),
    (lambda x: Binary("&&", Binary("==", lit(1), lit(1)), x), False),
    (lambda x: Binary("||", Binary("==", lit(1), lit(2)), x), True),
    (lambda x: Unary("!", x), True),
]


@pytest.mark.parametrize("operand", ["constant", "event"])
@pytest.mark.parametrize("build,n", EDGE_CASES, ids=[str(i) for i in range(len(EDGE_CASES))])
def test_edge_expression_matches_interpreter(build, n, operand):
    # only a duration builtin folds a constant operand, and nothing folds an
    # event parameter: either way the code computes and faults as the
    # interpreter does
    e = build(lit(n) if operand == "constant" else VarRef("event", "x"))
    gv = VarStore({"xs": VType.TS_LIST})
    gv.set("xs", [0, 5_000_000, 7_000_000])
    ctx = EvalContext(GLOBAL_SIDE, 7_200_000, None, None, {"x": n}, None, gv, None)
    state_types = {("global", "xs"): VType.TS_LIST}
    # compiling raises nothing: a constant that faults is left to fault here
    code = generate(lambda module: module.expr(e), state_types)
    assert outcome(lambda: code(ctx)) == outcome(lambda: eval_expr(e, ctx, state_types))


@pytest.mark.parametrize("kind", [VType.TIMESTAMP, VType.DURATION])
@pytest.mark.parametrize("n", [-1, 0, INT64_MAX, INT64_MAX + 1])
@pytest.mark.parametrize("operand", ["constant", "event"])
def test_range_check_of_a_write(kind, n, operand):
    value = lit(n) if operand == "constant" else VarRef("event", "x")
    ctx = EvalContext(GLOBAL_SIDE, 0, None, None, {"x": n}, None, VarStore({"t": kind}), None)
    state_types = {("global", "t"): kind}
    stmts = (Assign("global", "t", value),)
    reference = copied(ctx)
    code = generate(lambda module: module.stmts(stmts), state_types)
    got = outcome(lambda: code(ctx))
    assert got == outcome(lambda: exec_stmts(stmts, reference, state_types))
    assert got[0] == ("EvalError" if n in (-1, INT64_MAX + 1) else "value")
    assert stores_of(ctx) == stores_of(reference)


# runs

def guard_value(guard, cond_ids, truth):
    """The truth value of a guard expression, read straight off the tree."""
    if isinstance(guard, VarRef):
        return truth[cond_ids[guard.name]]
    if isinstance(guard, Unary):
        return not guard_value(guard.operand, cond_ids, truth)
    left = guard_value(guard.left, cond_ids, truth)
    if guard.op == "&&":
        return left and guard_value(guard.right, cond_ids, truth)
    return left or guard_value(guard.right, cond_ids, truth)


def reference_policy(cp: CompiledPolicy, spec: PolicySpec) -> CompiledPolicy:
    """`cp` with its code slots running the tree interpreter and its guards
    evaluating the guard expressions of `spec`."""
    cond_ids = {c.name: i for i, c in enumerate(spec.conditions)}
    reference = dataclasses.replace(
        cp,
        condition_code=tuple(lambda ctx, e=c.body: eval_expr(e, ctx, cp.state_types) for c in cp.conditions),
        action_code=tuple(lambda ctx, b=a.body: exec_stmts(b, ctx, cp.state_types) for a in cp.actions),
        guard_code=tuple(partial(guard_value, rule.guard, cond_ids) for rule in spec.rules),
    )
    return replan(reference, lambda plan: tuple(by_rules(b.rules) for b in plan))


def outputs(res):
    return (
        res.verdict_lines(),
        res.snapshot,
        res.channel_lines(),
        res.fault_lines(),
        res.arrival_order,
        res.local_states,
    )


def assert_runs_like_the_interpreter(cp, spec, trace, concurrent_same_t):
    got = run(trace, cp, concurrent_same_t=concurrent_same_t)
    want = run(trace, reference_policy(cp, spec), concurrent_same_t=concurrent_same_t)
    assert outputs(got) == outputs(want)
    return got


CORPUS_TRACES = [make_bench_trace(per_kind=120)] + [
    make_trace(96_000 + i, profile=p, max_events=300) for i, p in enumerate(("send_storm", "long_sitting", "game_day"))
]


@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_corpus_runs_like_the_interpreter(pid, concurrent_same_t):
    cp = compile_corpus_policy(pid)
    spec = parse_policy(build_policy_source(pid))
    for trace in CORPUS_TRACES:
        assert_runs_like_the_interpreter(cp, spec, trace, concurrent_same_t)


@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_faulting_batch_runs_like_the_interpreter(concurrent_same_t):
    spec = parse_policy(CENTRAL_FAULT_SRC)
    res = assert_runs_like_the_interpreter(
        validate_policy(spec), spec, sends_every(MS_PER_SECOND, 4, apps=["A", "B"]), concurrent_same_t
    )
    assert res.faults


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000), st.booleans())
def test_random_policy_runs_like_the_interpreter(rule_list, seed, concurrent_same_t):
    # the pools hold conditions and actions that fault
    spec = parse_policy(policy_source(rule_list))
    cp = validate_policy(spec)
    assume(isinstance(cp, CompiledPolicy))
    assert_runs_like_the_interpreter(cp, spec, make_trace(seed, max_apps=2, max_events=80), concurrent_same_t)
