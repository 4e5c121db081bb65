"""Expression language: typing rules, evaluation, statements and rollback.

Expressions and statements run as the monitors run them: compiled by
`dcmon.lang.closures`, as `compile_policy` compiles condition and action
bodies."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from dcmon.lang import (
    APP_SIDE,
    GLOBAL_SIDE,
    EvalContext,
    EvalError,
    VarStore,
    rollback,
    type_check,
)
from dcmon.lang.check import TypeMismatch, UnboundVariable
from dcmon.lang.nodes import (
    Assign,
    AppendStmt,
    Binary,
    BlockStmt,
    Call,
    Literal,
    PruneStmt,
    SetAttrStmt,
    Unary,
    VarRef,
)
from dcmon.lang.closures import compile_expr, compile_stmts
from dcmon.lang.eval import SideFault
from dcmon.lang.values import MS_PER_HOUR, VType
from dcmon.sim import run

from conftest import compile_src, sends_every
from reference_eval import exec_stmts as reference_exec_stmts


def lit(v):
    if isinstance(v, bool):
        return Literal(VType.BOOL, v)
    if isinstance(v, int):
        return Literal(VType.INT, v)
    return Literal(VType.STRING, v)


def ctx(
    side=APP_SIDE,
    now=0,
    bindings=None,
    local=None,
    global_vars=None,
    attrs=None,
    app_name="Maps",
    app_id="Maps",
):
    return EvalContext(
        side=side,
        now=now,
        app_id=app_id,
        app_name=app_name,
        event_bindings=bindings or {},
        local=local,
        global_vars=global_vars,
        attrs=attrs,
    )


def evaluate(expr, c, state_types=None):
    """`expr` compiled as `compile_policy` compiles a condition body, run
    in `c`; `state_types` gives the kinds of the state variables it reads."""
    return compile_expr(expr, state_types or {})(c)


def execute(stmts, c, state_types=None):
    """The action body `stmts`, compiled and run in `c`; returns whether it
    blocked."""
    return compile_stmts(tuple(stmts), state_types or {})(c)


# typing

def test_event_param_equality_types_bool():
    e = Binary("==", VarRef("event", "sent"), lit(True))
    assert type_check(e, {("event", "sent"): VType.BOOL}) is VType.BOOL


def test_int_plus_bool_rejected():
    with pytest.raises(TypeMismatch):
        type_check(Binary("+", lit(1), lit(True)), {})


def test_count_within_comparison_types_bool():
    e = Binary(
        ">=",
        Call("count_within", (VarRef("global", "sendTimes"), Call("hours", (lit(1),)))),
        lit(100),
    )
    assert type_check(e, {("global", "sendTimes"): VType.TS_LIST}) is VType.BOOL


# hand-written application of each typing rule
TYPING_TABLE = [
    (lit(True), VType.BOOL),
    (lit(7), VType.INT),
    (lit("x"), VType.STRING),
    (Unary("!", lit(False)), VType.BOOL),
    (Binary("&&", lit(True), lit(False)), VType.BOOL),
    (Binary("<", lit(1), lit(2)), VType.BOOL),
    (Binary("+", lit(1), lit(2)), VType.INT),
    (Binary("-", VarRef("ctx", "now"), VarRef("ctx", "now")), VType.DURATION),
    (Binary("-", VarRef("ctx", "now"), Call("hours", (lit(1),))), VType.TIMESTAMP),
    (Binary("+", Call("hours", (lit(1),)), Call("minutes", (lit(2),))), VType.DURATION),
    (Call("hour_of_day", (VarRef("ctx", "now"),)), VType.INT),
    (Call("is_pm", (VarRef("ctx", "now"),)), VType.BOOL),
    (Call("since_midnight", (VarRef("ctx", "now"),)), VType.DURATION),
    (Call("same_calendar_day", (VarRef("ctx", "now"), VarRef("ctx", "now"))), VType.BOOL),
    (Call("size", (VarRef("global", "xs"),)), VType.INT),
    (Call("starts_with", (lit("ab"), lit("a"))), VType.BOOL),
    (Call("contains", (lit("ab"), lit("b"))), VType.BOOL),
]


@pytest.mark.parametrize("expr,expected", TYPING_TABLE)
def test_typing_rule_table(expr, expected):
    env = {("ctx", "now"): VType.TIMESTAMP, ("global", "xs"): VType.TS_LIST}
    assert type_check(expr, env) is expected


ILL_TYPED = [
    Binary("==", lit(1), lit("1")),
    Binary("<", lit(True), lit(False)),
    Binary("+", VarRef("ctx", "now"), VarRef("ctx", "now")),  # ts + ts
    Binary("*", Call("hours", (lit(1),)), lit(2)),
    Unary("!", lit(3)),
    Call("hours", (lit(True),)),
    Call("count_within", (lit(1), Call("hours", (lit(1),)))),
    Call("starts_with", (lit("x"),)),
]


@pytest.mark.parametrize("expr", ILL_TYPED)
def test_ill_typed_rejected(expr):
    with pytest.raises(TypeMismatch):
        type_check(expr, {("ctx", "now"): VType.TIMESTAMP})


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        type_check(VarRef("global", "nope"), {})


def test_int_literal_out_of_range():
    with pytest.raises(TypeMismatch):
        type_check(Literal(VType.INT, 2**63), {})


# evaluation

def test_hour_of_day_at_13h():
    e = Call("hour_of_day", (VarRef("ctx", "now"),))
    assert evaluate(e, ctx(now=13 * MS_PER_HOUR)) == 13


def test_is_pm():
    e = Call("is_pm", (VarRef("ctx", "now"),))
    assert evaluate(e, ctx(now=11 * MS_PER_HOUR)) is False
    assert evaluate(e, ctx(now=12 * MS_PER_HOUR)) is True


def test_count_within_99_in_last_hour():
    gv = VarStore()
    now = 10 * MS_PER_HOUR
    times = sorted(now - (i * 30_000) for i in range(99))  # all within the hour
    gv.set("sendTimes", VType.TS_LIST, times)
    e = Call("count_within", (VarRef("global", "sendTimes"), Call("hours", (lit(1),))))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv)
    assert evaluate(e, c, {("global", "sendTimes"): VType.TS_LIST}) == 99


def test_app_name_comparison():
    e = Binary("==", VarRef("ctx", "app_name"), lit("StockControl"))
    assert evaluate(e, ctx(app_name="Maps")) is False


def test_division_by_zero_is_eval_error():
    with pytest.raises(EvalError) as err:
        evaluate(Binary("/", lit(1), lit(0)), ctx())
    assert err.value.code == "DivisionByZero"


def test_division_truncates_toward_zero():
    assert evaluate(Binary("/", lit(7), lit(2)), ctx()) == 3
    neg = Binary("-", lit(0), lit(7))
    assert evaluate(Binary("/", neg, lit(2)), ctx()) == -3


def test_overflow_checked():
    big = Literal(VType.INT, 2**62)
    with pytest.raises(EvalError) as err:
        evaluate(Binary("*", big, lit(4)), ctx())
    assert err.value.code == "Overflow"


def test_int64_min_divided_by_minus_one_overflows():
    int64_min = Binary("-", Binary("-", lit(0), lit(2**63 - 1)), lit(1))
    with pytest.raises(EvalError) as err:
        evaluate(Binary("/", int64_min, Binary("-", lit(0), lit(1))), ctx())
    assert err.value.code == "Overflow"


MIN_DIV_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions { GlobalSide { always = { true } } }
Actions { GlobalSide { div = { global.x := 0 - 9223372036854775807 - 1; global.y := global.x / (0 - 1); } } }
Rules { divRule = sendB() | always -> div; }
"""


def test_int64_min_divided_by_minus_one_faults_and_rolls_back():
    res = run(sends_every(1000, 1), compile_src(MIN_DIV_SRC))
    assert res.faults == [(0, "EvalFault:Overflow")]
    assert [res.global_state.vars.get(n, VType.INT) for n in ("x", "y")] == [0, 0]


def test_negative_duration_constructor_rejected():
    neg = Binary("-", lit(0), lit(5))
    with pytest.raises(EvalError) as err:
        evaluate(Call("minutes", (neg,)), ctx())
    assert err.value.code == "NegativeDuration"


def test_uninitialized_state_reads_typed_zero():
    gv = VarStore()
    c = ctx(side=GLOBAL_SIDE, global_vars=gv)
    assert evaluate(VarRef("global", "msgCount"), c, {("global", "msgCount"): VType.INT}) == 0
    kinds = {("global", "xs"): VType.TS_LIST, ("global", "flag"): VType.BOOL}
    assert evaluate(VarRef("global", "xs"), c, kinds) == []
    assert evaluate(VarRef("global", "flag"), c, kinds) is False


def test_eval_is_pure():
    gv = VarStore()
    gv.set("n", VType.INT, 41)
    e = Binary("+", VarRef("global", "n"), lit(1))
    c = ctx(side=GLOBAL_SIDE, global_vars=gv)
    kinds = {("global", "n"): VType.INT}
    assert evaluate(e, c, kinds) == evaluate(e, c, kinds) == 42
    assert gv.get("n", VType.INT) == 41


# statements

def test_increment_produces_state_write():
    gv = VarStore()
    gv.set("msgCount", VType.INT, 41)
    stmt = Assign("global", "msgCount", Binary("+", VarRef("global", "msgCount"), lit(1)))
    c = ctx(side=GLOBAL_SIDE, global_vars=gv)
    assert execute([stmt], c, {("global", "msgCount"): VType.INT}) is False
    assert gv.get("msgCount", VType.INT) == 42 and gv.kind_of("msgCount") is VType.INT
    assert c.undo == [(gv, "msgCount", VType.INT, 41)]


def test_block_in_app_context():
    lv = VarStore()
    c = ctx(local=lv)
    assert execute([BlockStmt()], c) is True
    assert len(lv) == 0 and c.undo == []


def test_block_in_global_context_is_side_fault():
    with pytest.raises(SideFault):
        execute([BlockStmt()], ctx(side=GLOBAL_SIDE, global_vars=VarStore()))


def test_set_attr_effect():
    stmt = SetAttrStmt("wifi_enabled", lit(False))
    attrs = VarStore()
    c = ctx(side=GLOBAL_SIDE, global_vars=VarStore(), attrs=attrs)
    assert execute([stmt], c, {("attr", "wifi_enabled"): VType.BOOL}) is False
    assert attrs.get("wifi_enabled", VType.BOOL) is False and attrs.kind_of("wifi_enabled") is VType.BOOL
    # the name was absent before, so rolling back removes it
    assert c.undo == [(attrs, "wifi_enabled", None, None)]


def test_append_keeps_list_sorted():
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, [5, 10])
    c = ctx(side=GLOBAL_SIDE, now=7, global_vars=gv)
    execute([AppendStmt("global", "xs", VarRef("ctx", "now"))], c, {("global", "xs"): VType.TS_LIST})
    assert gv.get("xs", VType.TS_LIST) == [5, 7, 10]


def test_prune_removes_strictly_older():
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, [0, 40, 60, 100])
    c = ctx(side=GLOBAL_SIDE, now=100, global_vars=gv)
    execute([PruneStmt("global", "xs", Call("seconds", (lit(0),)))], c, {("global", "xs"): VType.TS_LIST})
    # horizon 0: keep exactly now - t <= 0, i.e. t >= 100
    assert gv.get("xs", VType.TS_LIST) == [100]


# property tests

timestamps = st.lists(st.integers(min_value=0, max_value=10**10), max_size=60).map(sorted)
durations = st.integers(min_value=0, max_value=10**10)
nows = st.integers(min_value=0, max_value=10**10)

# Statements write "n" and "xs" in the local and global stores and the
# attributes "bright" and "wifi_enabled". A drawn pre-state may lack any of
# them, or hold a scalar name under another kind than the one written.
ROLLBACK_TYPES = {
    ("local", "n"): VType.INT,
    ("global", "n"): VType.INT,
    ("local", "xs"): VType.TS_LIST,
    ("global", "xs"): VType.TS_LIST,
    ("attr", "bright"): VType.INT,
    ("attr", "wifi_enabled"): VType.BOOL,
}
scalars = st.one_of(
    st.booleans().map(lambda v: (VType.BOOL, v)),
    st.integers(-5, 5).map(lambda v: (VType.INT, v)),
    durations.map(lambda v: (VType.DURATION, v)),
)


@st.composite
def stores(draw, scalar_names, list_names=()):
    store = VarStore()
    for name in scalar_names:
        if draw(st.booleans()):
            store.set(name, *draw(scalars))
    for name in list_names:
        if draw(st.booleans()):
            store.set(name, VType.TS_LIST, draw(timestamps))
    return store


namespaces = st.sampled_from(["local", "global"])
statements = st.lists(
    st.one_of(
        st.builds(lambda ns, v: Assign(ns, "n", lit(v)), namespaces, st.integers(-9, 9)),
        st.builds(lambda ns, t: AppendStmt(ns, "xs", Literal(VType.TIMESTAMP, t)), namespaces, nows),
        st.builds(lambda ns, d: PruneStmt(ns, "xs", Literal(VType.DURATION, d)), namespaces, durations),
        st.builds(lambda v: SetAttrStmt("bright", lit(v)), st.integers(-9, 9)),
        st.builds(lambda v: SetAttrStmt("wifi_enabled", lit(v)), st.booleans()),
        st.just(BlockStmt()),
    ),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(
    lv=stores(("n", "m"), ("xs",)),
    gv=stores(("n", "m"), ("xs",)),
    attrs=stores(("bright", "wifi_enabled")),
    stmts=statements,
    now=nows,
)
def test_rollback_restores_pre_state(lv, gv, attrs, stmts, now):
    pre = [lv.copy(), gv.copy(), attrs.copy()]
    c = ctx(now=now, local=lv, global_vars=gv, attrs=attrs)
    for stmt in stmts:
        execute([stmt], c, ROLLBACK_TYPES)
    assert len(c.undo) == sum(not isinstance(s, BlockStmt) for s in stmts)
    rollback(c.undo)
    # VarStore equality compares the kinds too
    assert [lv, gv, attrs] == pre
    assert c.undo == []


@settings(max_examples=300, deadline=None)
@given(
    lv=stores(("n", "m"), ("xs",)),
    gv=stores(("n", "m"), ("xs",)),
    attrs=stores(("bright", "wifi_enabled")),
    stmts=statements,
    now=nows,
)
def test_compiled_rollback_restores_pre_state(lv, gv, attrs, stmts, now):
    pre = [lv.copy(), gv.copy(), attrs.copy()]
    # the reference interpreter on copies gives the state the compiled body
    # must write
    want = [lv.copy(), gv.copy(), attrs.copy()]
    reference_exec_stmts(stmts, ctx(now=now, local=want[0], global_vars=want[1], attrs=want[2]), ROLLBACK_TYPES)
    c = ctx(now=now, local=lv, global_vars=gv, attrs=attrs)
    assert execute(stmts, c, ROLLBACK_TYPES) is any(isinstance(s, BlockStmt) for s in stmts)
    assert [lv, gv, attrs] == want
    assert len(c.undo) == sum(not isinstance(s, BlockStmt) for s in stmts)
    rollback(c.undo)
    assert [lv, gv, attrs] == pre
    assert c.undo == []


def test_compiled_append_inserts_in_place():
    gv = VarStore()
    xs = [5, 7, 10]
    gv.set("xs", VType.TS_LIST, xs)
    c = ctx(side=GLOBAL_SIDE, now=7, global_vars=gv)
    execute([AppendStmt("global", "xs", VarRef("ctx", "now"))], c, {("global", "xs"): VType.TS_LIST})
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [5, 7, 7, 10]
    # the undo record deletes the inserted index instead of copying the list
    assert c.undo == [(xs, 2, 3, ())]
    rollback(c.undo)
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [5, 7, 10]


def test_compiled_prune_drops_the_prefix_in_place():
    gv = VarStore()
    xs = [0, 40, 60, 100]
    gv.set("xs", VType.TS_LIST, xs)
    c = ctx(side=GLOBAL_SIDE, now=100, global_vars=gv)
    execute([PruneStmt("global", "xs", Literal(VType.DURATION, 40))], c, {("global", "xs"): VType.TS_LIST})
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [60, 100]
    # the undo record holds the dropped prefix only
    assert c.undo == [(xs, 0, 0, [0, 40])]
    rollback(c.undo)
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [0, 40, 60, 100]


@settings(max_examples=200, deadline=None)
@given(times=timestamps, horizon=durations, now=nows)
def test_count_within_matches_brute_force(times, horizon, now):
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, list(times))
    e = Call("count_within", (VarRef("global", "xs"), Literal(VType.DURATION, horizon)))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv)
    brute = sum(1 for t in times if now - t <= horizon)
    assert evaluate(e, c, {("global", "xs"): VType.TS_LIST}) == brute


@settings(max_examples=200, deadline=None)
@given(times=timestamps, horizon=durations, now=nows)
def test_prune_matches_brute_force_and_keeps_sorted(times, horizon, now):
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, list(times))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv)
    execute([PruneStmt("global", "xs", Literal(VType.DURATION, horizon))], c, {("global", "xs"): VType.TS_LIST})
    kept = gv.get("xs", VType.TS_LIST)
    assert kept == sorted(t for t in times if now - t <= horizon)
