"""Expression language: typing rules, evaluation, statements and rollback."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from dcmon.lang import (
    APP_SIDE,
    GLOBAL_SIDE,
    EvalContext,
    EvalError,
    VarStore,
    eval_expr,
    exec_stmt,
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
from dcmon.lang.eval import SideFault
from dcmon.lang.values import MS_PER_HOUR, VType
from dcmon.sim import run

from conftest import compile_src, sends_every


def lit(v):
    if isinstance(v, bool):
        return Literal(VType.BOOL, v)
    if isinstance(v, int):
        return Literal(VType.INT, v)
    return Literal(VType.STRING, v)


def ctx(
    side=APP_SIDE,
    now=0,
    state_types=None,
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
        state_types=state_types or {},
        app_id=app_id,
        app_name=app_name,
        event_bindings=bindings or {},
        local=local,
        global_vars=global_vars,
        attrs=attrs,
    )


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
    assert eval_expr(e, ctx(now=13 * MS_PER_HOUR)) == 13


def test_is_pm():
    e = Call("is_pm", (VarRef("ctx", "now"),))
    assert eval_expr(e, ctx(now=11 * MS_PER_HOUR)) is False
    assert eval_expr(e, ctx(now=12 * MS_PER_HOUR)) is True


def test_count_within_99_in_last_hour():
    gv = VarStore()
    now = 10 * MS_PER_HOUR
    times = sorted(now - (i * 30_000) for i in range(99))  # all within the hour
    gv.set("sendTimes", VType.TS_LIST, times)
    e = Call("count_within", (VarRef("global", "sendTimes"), Call("hours", (lit(1),))))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv, state_types={("global", "sendTimes"): VType.TS_LIST})
    assert eval_expr(e, c) == 99


def test_app_name_comparison():
    e = Binary("==", VarRef("ctx", "app_name"), lit("StockControl"))
    assert eval_expr(e, ctx(app_name="Maps")) is False


def test_division_by_zero_is_eval_error():
    with pytest.raises(EvalError) as err:
        eval_expr(Binary("/", lit(1), lit(0)), ctx())
    assert err.value.code == "DivisionByZero"


def test_division_truncates_toward_zero():
    assert eval_expr(Binary("/", lit(7), lit(2)), ctx()) == 3
    neg = Binary("-", lit(0), lit(7))
    assert eval_expr(Binary("/", neg, lit(2)), ctx()) == -3


def test_overflow_checked():
    big = Literal(VType.INT, 2**62)
    with pytest.raises(EvalError) as err:
        eval_expr(Binary("*", big, lit(4)), ctx())
    assert err.value.code == "Overflow"


def test_int64_min_divided_by_minus_one_overflows():
    int64_min = Binary("-", Binary("-", lit(0), lit(2**63 - 1)), lit(1))
    with pytest.raises(EvalError) as err:
        eval_expr(Binary("/", int64_min, Binary("-", lit(0), lit(1))), ctx())
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
        eval_expr(Call("minutes", (neg,)), ctx())
    assert err.value.code == "NegativeDuration"


def test_uninitialized_state_reads_typed_zero():
    gv = VarStore()
    c = ctx(side=GLOBAL_SIDE, global_vars=gv, state_types={("global", "msgCount"): VType.INT})
    assert eval_expr(VarRef("global", "msgCount"), c) == 0
    c2 = ctx(
        side=GLOBAL_SIDE, global_vars=gv,
        state_types={("global", "xs"): VType.TS_LIST, ("global", "flag"): VType.BOOL},
    )
    assert eval_expr(VarRef("global", "xs"), c2) == []
    assert eval_expr(VarRef("global", "flag"), c2) is False


def test_eval_is_pure():
    gv = VarStore()
    gv.set("n", VType.INT, 41)
    e = Binary("+", VarRef("global", "n"), lit(1))
    c = ctx(side=GLOBAL_SIDE, global_vars=gv, state_types={("global", "n"): VType.INT})
    assert eval_expr(e, c) == eval_expr(e, c) == 42
    assert gv.get("n", VType.INT) == 41


# statements

def test_increment_produces_state_write():
    gv = VarStore()
    gv.set("msgCount", VType.INT, 41)
    stmt = Assign("global", "msgCount", Binary("+", VarRef("global", "msgCount"), lit(1)))
    c = ctx(side=GLOBAL_SIDE, global_vars=gv, state_types={("global", "msgCount"): VType.INT})
    assert exec_stmt(stmt, c) is False
    assert gv.get("msgCount", VType.INT) == 42 and gv.kind_of("msgCount") is VType.INT
    assert c.undo == [(gv, "msgCount", VType.INT, 41)]


def test_block_in_app_context():
    lv = VarStore()
    c = ctx(local=lv)
    assert exec_stmt(BlockStmt(), c) is True
    assert len(lv) == 0 and c.undo == []


def test_block_in_global_context_is_side_fault():
    with pytest.raises(SideFault):
        exec_stmt(BlockStmt(), ctx(side=GLOBAL_SIDE, global_vars=VarStore()))


def test_set_attr_effect():
    stmt = SetAttrStmt("wifi_enabled", lit(False))
    attrs = VarStore()
    c = ctx(side=GLOBAL_SIDE, global_vars=VarStore(), attrs=attrs,
            state_types={("attr", "wifi_enabled"): VType.BOOL})
    assert exec_stmt(stmt, c) is False
    assert attrs.get("wifi_enabled", VType.BOOL) is False and attrs.kind_of("wifi_enabled") is VType.BOOL
    # the name was absent before, so rolling back removes it
    assert c.undo == [(attrs, "wifi_enabled", None, None)]


def test_append_keeps_list_sorted():
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, [5, 10])
    st_types = {("global", "xs"): VType.TS_LIST}
    c = ctx(side=GLOBAL_SIDE, now=7, global_vars=gv, state_types=st_types)
    exec_stmt(AppendStmt("global", "xs", VarRef("ctx", "now")), c)
    assert gv.get("xs", VType.TS_LIST) == [5, 7, 10]


def test_prune_removes_strictly_older():
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, [0, 40, 60, 100])
    st_types = {("global", "xs"): VType.TS_LIST}
    c = ctx(side=GLOBAL_SIDE, now=100, global_vars=gv, state_types=st_types)
    exec_stmt(PruneStmt("global", "xs", Call("seconds", (lit(0),))), c)
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
    c = ctx(now=now, local=lv, global_vars=gv, attrs=attrs, state_types=ROLLBACK_TYPES)
    for stmt in stmts:
        exec_stmt(stmt, c)
    assert len(c.undo) == sum(not isinstance(s, BlockStmt) for s in stmts)
    rollback(c.undo)
    # VarStore equality compares the kinds too
    assert [lv, gv, attrs] == pre
    assert c.undo == []


@settings(max_examples=200, deadline=None)
@given(times=timestamps, horizon=durations, now=nows)
def test_count_within_matches_brute_force(times, horizon, now):
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, list(times))
    e = Call("count_within", (VarRef("global", "xs"), Literal(VType.DURATION, horizon)))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv, state_types={("global", "xs"): VType.TS_LIST})
    brute = sum(1 for t in times if now - t <= horizon)
    assert eval_expr(e, c) == brute


@settings(max_examples=200, deadline=None)
@given(times=timestamps, horizon=durations, now=nows)
def test_prune_matches_brute_force_and_keeps_sorted(times, horizon, now):
    gv = VarStore()
    gv.set("xs", VType.TS_LIST, list(times))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv, state_types={("global", "xs"): VType.TS_LIST})
    exec_stmt(PruneStmt("global", "xs", Literal(VType.DURATION, horizon)), c)
    kept = gv.get("xs", VType.TS_LIST)
    assert kept == sorted(t for t in times if now - t <= horizon)
