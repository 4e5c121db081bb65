"""Expression language: typing rules, evaluation, statements and rollback.

Expressions and statements run as the monitors run them: generated by
`dcmon.lang.codegen`, as `compile_policy` compiles condition and action
bodies, in a context of the kind the monitor of the body's side builds."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from dcmon.catalog import DEVICE_ATTRS
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
from dcmon.lang.eval import ABSENT
from dcmon.lang.values import MS_PER_HOUR, VType
from dcmon.sim import run

from conftest import compile_src, generate, sends_every
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
    """A context as the monitor of `side` builds one: the app side has a
    local store, the attribute store, an app id and an app name, and the
    global side has the global and attribute stores. A store of the side
    that is not given is an empty one; the other side's store is dropped."""
    attrs = VarStore(DEVICE_ATTRS) if attrs is None else attrs
    if side == APP_SIDE:
        local = VarStore({}) if local is None else local
        return EvalContext(side, now, app_id, app_name, bindings or {}, local, None, attrs)
    global_vars = VarStore({}) if global_vars is None else global_vars
    return EvalContext(side, now, None, None, bindings or {}, None, global_vars, attrs)


def evaluate(expr, c, state_types=None):
    """`expr` compiled as `compile_policy` compiles a condition body, run
    in `c`; `state_types` gives the kinds of the state variables it reads."""
    return generate(lambda module: module.expr(expr), state_types)(c)


def execute(stmts, c, state_types=None):
    """The action body `stmts`, compiled and run in `c`; returns whether it
    blocked."""
    return generate(lambda module: module.stmts(tuple(stmts)), state_types)(c)


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
    gv = VarStore({"sendTimes": VType.TS_LIST})
    now = 10 * MS_PER_HOUR
    times = sorted(now - (i * 30_000) for i in range(99))  # all within the hour
    gv.set("sendTimes", times)
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
    kinds = {("global", "msgCount"): VType.INT, ("global", "xs"): VType.TS_LIST, ("global", "flag"): VType.BOOL}
    gv = VarStore({name: kind for (_, name), kind in kinds.items()})
    c = ctx(side=GLOBAL_SIDE, global_vars=gv)
    assert evaluate(VarRef("global", "msgCount"), c, kinds) == 0
    assert evaluate(VarRef("global", "xs"), c, kinds) == []
    assert evaluate(VarRef("global", "flag"), c, kinds) is False


def test_eval_is_pure():
    gv = VarStore({"n": VType.INT})
    gv.set("n", 41)
    e = Binary("+", VarRef("global", "n"), lit(1))
    c = ctx(side=GLOBAL_SIDE, global_vars=gv)
    kinds = {("global", "n"): VType.INT}
    assert evaluate(e, c, kinds) == evaluate(e, c, kinds) == 42
    assert gv.get("n", VType.INT) == 41


# statements

def test_increment_produces_state_write():
    gv = VarStore({"msgCount": VType.INT})
    gv.set("msgCount", 41)
    stmt = Assign("global", "msgCount", Binary("+", VarRef("global", "msgCount"), lit(1)))
    c = ctx(side=GLOBAL_SIDE, global_vars=gv)
    assert execute([stmt], c, {("global", "msgCount"): VType.INT}) is False
    assert list(gv.items_typed()) == [("msgCount", VType.INT, 42)]
    assert c.undo == [(gv._vals, "msgCount", 41)]


def test_block_in_app_context():
    lv = VarStore({})
    c = ctx(local=lv)
    assert execute([BlockStmt()], c) is True
    assert lv == VarStore({}) and c.undo == []


def test_set_attr_effect():
    stmt = SetAttrStmt("wifi_enabled", lit(False))
    attrs = VarStore(DEVICE_ATTRS)
    c = ctx(side=GLOBAL_SIDE, global_vars=VarStore({}), attrs=attrs)
    assert execute([stmt], c, {("attr", "wifi_enabled"): VType.BOOL}) is False
    assert list(attrs.items_typed()) == [("wifi_enabled", VType.BOOL, False)]
    # the name was absent before, so rolling back removes it
    assert c.undo == [(attrs._vals, "wifi_enabled", ABSENT)]


def test_append_keeps_list_sorted():
    gv = VarStore({"xs": VType.TS_LIST})
    gv.set("xs", [5, 10])
    c = ctx(side=GLOBAL_SIDE, now=7, global_vars=gv)
    execute([AppendStmt("global", "xs", VarRef("ctx", "now"))], c, {("global", "xs"): VType.TS_LIST})
    assert gv.get("xs", VType.TS_LIST) == [5, 7, 10]


def test_prune_removes_strictly_older():
    gv = VarStore({"xs": VType.TS_LIST})
    gv.set("xs", [0, 40, 60, 100])
    c = ctx(side=GLOBAL_SIDE, now=100, global_vars=gv)
    execute([PruneStmt("global", "xs", Call("seconds", (lit(0),)))], c, {("global", "xs"): VType.TS_LIST})
    # horizon 0: keep exactly now - t <= 0, i.e. t >= 100
    assert gv.get("xs", VType.TS_LIST) == [100]


# property tests

timestamps = st.lists(st.integers(min_value=0, max_value=10**10), max_size=60).map(sorted)
durations = st.integers(min_value=0, max_value=10**10)
nows = st.integers(min_value=0, max_value=10**10)

# Statements write "n" and "xs" in the local and global stores and the
# attributes "bright" and "wifi_enabled"; "m", which none writes, stands
# beside them. A drawn pre-state may lack any of them, and holds each one
# it has as a value of its kind in its store's table.
ROLLBACK_TYPES = {
    ("local", "n"): VType.INT,
    ("global", "n"): VType.INT,
    ("local", "m"): VType.DURATION,
    ("global", "m"): VType.BOOL,
    ("local", "xs"): VType.TS_LIST,
    ("global", "xs"): VType.TS_LIST,
    ("attr", "bright"): VType.INT,
    ("attr", "wifi_enabled"): VType.BOOL,
}
VALUES = {VType.BOOL: st.booleans(), VType.INT: st.integers(-5, 5), VType.DURATION: durations, VType.TS_LIST: timestamps}


@st.composite
def stores(draw, ns):
    """A store of namespace `ns` over its kinds in ROLLBACK_TYPES."""
    store = VarStore({name: kind for (n, name), kind in ROLLBACK_TYPES.items() if n == ns})
    for name, kind in store.kinds.items():
        if draw(st.booleans()):
            store.set(name, draw(VALUES[kind]))
    return store


@st.composite
def bodies(draw):
    """`(side, statements)`: an action body of either side, as validation
    passes one. It writes its own side's store and the attributes, and only
    an app-side body blocks."""
    side = draw(st.sampled_from([APP_SIDE, GLOBAL_SIDE]))
    ns = "local" if side == APP_SIDE else "global"
    statement = st.one_of(
        st.integers(-9, 9).map(lambda v: Assign(ns, "n", lit(v))),
        nows.map(lambda t: AppendStmt(ns, "xs", Literal(VType.TIMESTAMP, t))),
        durations.map(lambda d: PruneStmt(ns, "xs", Literal(VType.DURATION, d))),
        st.integers(-9, 9).map(lambda v: SetAttrStmt("bright", lit(v))),
        st.booleans().map(lambda v: SetAttrStmt("wifi_enabled", lit(v))),
        *([st.just(BlockStmt())] if side == APP_SIDE else []),
    )
    return side, draw(st.lists(statement, max_size=10))


@settings(max_examples=300, deadline=None)
@given(
    lv=stores("local"),
    gv=stores("global"),
    attrs=stores("attr"),
    body=bodies(),
    now=nows,
)
def test_rollback_restores_pre_state(lv, gv, attrs, body, now):
    side, stmts = body
    pre = [lv.copy(), gv.copy(), attrs.copy()]
    c = ctx(side, now=now, local=lv, global_vars=gv, attrs=attrs)
    for stmt in stmts:
        execute([stmt], c, ROLLBACK_TYPES)
    assert len(c.undo) == sum(not isinstance(s, BlockStmt) for s in stmts)
    rollback(c.undo)
    # the same values under the same names: each name a statement created is gone
    assert [lv, gv, attrs] == pre
    assert c.undo == []


@settings(max_examples=300, deadline=None)
@given(
    lv=stores("local"),
    gv=stores("global"),
    attrs=stores("attr"),
    body=bodies(),
    now=nows,
)
def test_compiled_rollback_restores_pre_state(lv, gv, attrs, body, now):
    side, stmts = body
    pre = [lv.copy(), gv.copy(), attrs.copy()]
    # the reference interpreter on copies gives the state the compiled body
    # must write
    want = [lv.copy(), gv.copy(), attrs.copy()]
    reference_exec_stmts(stmts, ctx(side, now=now, local=want[0], global_vars=want[1], attrs=want[2]), ROLLBACK_TYPES)
    c = ctx(side, now=now, local=lv, global_vars=gv, attrs=attrs)
    assert execute(stmts, c, ROLLBACK_TYPES) is any(isinstance(s, BlockStmt) for s in stmts)
    assert [lv, gv, attrs] == want
    assert len(c.undo) == sum(not isinstance(s, BlockStmt) for s in stmts)
    rollback(c.undo)
    assert [lv, gv, attrs] == pre
    assert c.undo == []


@settings(max_examples=300, deadline=None)
@given(
    lv=stores("local"),
    gv=stores("global"),
    attrs=stores("attr"),
    body=bodies(),
    now=nows,
)
def test_every_undo_record_is_container_key_old(lv, gv, attrs, body, now):
    side, stmts = body
    names = [set(store._vals) for store in (lv, gv, attrs)]
    lists = [(store, store._vals["xs"], list(store._vals["xs"])) for store in (lv, gv) if "xs" in store]
    c = ctx(side, now=now, local=lv, global_vars=gv, attrs=attrs)
    execute(stmts, c, ROLLBACK_TYPES)
    for record in c.undo:
        # a store's dict and a name, or a stored ts_list and the slice edited in place
        assert type(record) is tuple and len(record) == 3
        container, key, old = record
        if type(container) is dict:
            assert any(container is store._vals for store in (lv, gv, attrs)) and type(key) is str
        else:
            assert any(container is store._vals.get("xs") for store in (lv, gv)) and type(key) is slice
    rollback(c.undo)
    # the names the statements created are deleted again
    assert [set(store._vals) for store in (lv, gv, attrs)] == names
    # and each ts_list edited in place holds its items again, as the same list
    for store, value, items in lists:
        assert store._vals["xs"] is value and value == items


def test_compiled_append_inserts_in_place():
    gv = VarStore({"xs": VType.TS_LIST})
    xs = [5, 7, 10]
    gv.set("xs", xs)
    c = ctx(side=GLOBAL_SIDE, now=7, global_vars=gv)
    execute([AppendStmt("global", "xs", VarRef("ctx", "now"))], c, {("global", "xs"): VType.TS_LIST})
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [5, 7, 7, 10]
    # the undo record deletes the inserted index instead of copying the list
    assert c.undo == [(xs, slice(2, 3), ())]
    rollback(c.undo)
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [5, 7, 10]


def test_compiled_prune_drops_the_prefix_in_place():
    gv = VarStore({"xs": VType.TS_LIST})
    xs = [0, 40, 60, 100]
    gv.set("xs", xs)
    c = ctx(side=GLOBAL_SIDE, now=100, global_vars=gv)
    execute([PruneStmt("global", "xs", Literal(VType.DURATION, 40))], c, {("global", "xs"): VType.TS_LIST})
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [60, 100]
    # the undo record holds the dropped prefix only
    assert c.undo == [(xs, slice(0, 0), [0, 40])]
    rollback(c.undo)
    assert gv.get("xs", VType.TS_LIST) is xs and xs == [0, 40, 60, 100]


@settings(max_examples=200, deadline=None)
@given(times=timestamps, horizon=durations, now=nows)
def test_count_within_matches_brute_force(times, horizon, now):
    gv = VarStore({"xs": VType.TS_LIST})
    gv.set("xs", list(times))
    e = Call("count_within", (VarRef("global", "xs"), Literal(VType.DURATION, horizon)))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv)
    brute = sum(1 for t in times if now - t <= horizon)
    assert evaluate(e, c, {("global", "xs"): VType.TS_LIST}) == brute


@settings(max_examples=200, deadline=None)
@given(times=timestamps, horizon=durations, now=nows)
def test_prune_matches_brute_force_and_keeps_sorted(times, horizon, now):
    gv = VarStore({"xs": VType.TS_LIST})
    gv.set("xs", list(times))
    c = ctx(side=GLOBAL_SIDE, now=now, global_vars=gv)
    execute([PruneStmt("global", "xs", Literal(VType.DURATION, horizon))], c, {("global", "xs"): VType.TS_LIST})
    kept = gv.get("xs", VType.TS_LIST)
    assert kept == sorted(t for t in times if now - t <= horizon)
