"""Generated code at the parser's nesting caps, and policy text that must
stay data.

`compile_policy` writes every body and guard of a policy as Python source
and compiles it once (`dcmon.lang.codegen`). Each shape that
`test_parser.py` caps is taken here at its cap, over state variables and
event parameters so that nothing folds: it must validate, and its code must
return or raise what the tree interpreter of `reference_eval.py` returns or
raises. So must policies whose strings and names look like Python, or like
the generator's own names: policy text reaches the generated source only as
the repr of a value or of a key. A `set_attr` may name only a device
attribute, so such a string there is an error whose diagnostic quotes it.
"""

import gc
import itertools
import weakref

import pytest

from dcmon.catalog import CATALOG
from dcmon.corpus import CORPUS_IDS, build_policy_source, compile_corpus_policy
from dcmon.dsl import ParseError, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy
from dcmon.lang import GLOBAL_SIDE, EvalContext, VarStore
from dcmon.lang import codegen
from dcmon.lang.values import MS_PER_DAY, VType
from dcmon.sim import TraceEvent

from conftest import wifi
from reference_eval import eval_expr, exec_stmts
from test_closures import assert_runs_like_the_interpreter, copied, guard_value, outcome, stores_of

SHAPES_SRC = """
Events {{ ApplicationSide {{ e() = {{ WifiManager *.setWifiEnabled(boolean on) }} }} }}
Conditions {{ GlobalSide {{ c = {{ {condition} }} a = {{ global.b }} b = {{ global.n > 1 }} }} }}
Actions {{ GlobalSide {{
    kinds = {{ global.b := true; global.n := 1; global.d := seconds(global.n); }}
    act = {{ global.x := {value}; }}
}} }}
Rules {{ e() | {guard} -> act, kinds; }}
"""


def alternate(n, first, second):
    return [first if i % 2 == 0 else second for i in range(n)]


def right_nested(n, first, second):
    """`first && (second || (first && ...))`, n operators deep."""
    operands = alternate(n, first, second)
    return "".join(f"{x} {'&&' if i % 2 == 0 else '||'} (" for i, x in enumerate(operands)) + first + ")" * n


# (where the shape goes, its text for n levels, its cap); the first seven
# are `test_body_nesting_capped`'s shapes and the four guards
# `test_guard_nesting_capped`'s, the right-nested ones nest blocks and
# parentheses in the generated source
SHAPES = {
    "or_chain": ("condition", lambda n: " || ".join(alternate(n, "global.b", "event.on")), 196),
    "and_chain": ("condition", lambda n: " && ".join(alternate(n, "global.b", "event.on")), 196),
    "add_chain": ("value", lambda n: " + ".join(["global.n"] * n), 196),
    "mul_chain": ("value", lambda n: " * ".join(["global.n"] * n), 196),
    "not": ("condition", lambda n: "!" * n + "global.b", 194),
    "parens": ("condition", lambda n: "(" * n + "global.b" + ")" * n, 27),
    "calls": ("value", lambda n: "since_midnight(now - " * n + "global.d" + ")" * n, 27),
    "right_nested_logic": ("condition", lambda n: right_nested(n, "global.b", "event.on"), 27),
    "right_nested_sub": ("value", lambda n: "global.n - (" * n + "global.n" + ")" * n, 27),
    "guard_parens": ("guard", lambda n: "(" * n + "a" + ")" * n, 66),
    "guard_not": ("guard", lambda n: "!" * n + "a", 198),
    "guard_and_chain": ("guard", lambda n: " && ".join(alternate(n, "a", "b")), 200),
    "guard_or_chain": ("guard", lambda n: " || ".join(alternate(n, "a", "b")), 200),
    "guard_right_nested": ("guard", lambda n: right_nested(n, "a", "b"), 66),
}


def shape_source(where, text):
    parts = {"condition": "true", "value": "0", "guard": "c"}
    parts[where] = text
    return SHAPES_SRC.format(**parts)


def contexts():
    """Global-side contexts over every mix of the stored values, with and
    without the event parameter, and one without a global store."""
    for b, n, on in itertools.product((False, True), (0, 1, 2, 2**62), (False, True, None)):
        gv = VarStore()
        gv.set("b", VType.BOOL, b)
        gv.set("n", VType.INT, n)
        gv.set("d", VType.DURATION, 3 * MS_PER_DAY + n)
        yield EvalContext(GLOBAL_SIDE, 10 * MS_PER_DAY + 7, None, None, None if on is None else {"on": on}, None, gv, None)
    yield EvalContext(GLOBAL_SIDE, 0, None, None, {}, None, None, None)


@pytest.mark.parametrize("shape", SHAPES)
def test_shape_at_its_cap_runs_like_the_interpreter(shape):
    where, make, cap = SHAPES[shape]
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse_policy(shape_source(where, make(cap + 1)))
    spec = parse_policy(shape_source(where, make(cap)))
    cp = validate_policy(spec)
    assert isinstance(cp, CompiledPolicy), cp
    state_types = cp.state_types
    if where == "guard":
        for truth in ({0: a, 1: b, 2: c} for a, b, c in itertools.product((False, True), repeat=3)):
            assert cp.rules[0].guard(truth) is guard_value(spec.rules[0].guard, {"c": 0, "a": 1, "b": 2}, truth)
        return
    for ctx in contexts():
        if where == "condition":
            body = spec.conditions[0].body
            got = outcome(lambda: cp.condition_code[0](ctx))
            assert got == outcome(lambda: eval_expr(body, ctx, state_types))
            continue
        body = spec.actions[1].body
        reference = copied(ctx)
        got = outcome(lambda: cp.action_code[1](ctx))
        assert got == outcome(lambda: exec_stmts(body, reference, state_types))
        assert stores_of(ctx) == stores_of(reference)
        assert len(ctx.undo) == len(reference.undo)


# policy text that looks like code

STRINGS = ["'", '"', "\\", "\n", "\t", "\u2028", "{0}", "'); __import__('os'); ('", "\\\"\n\t'\u2028{} "]


def dsl_string(text):
    """`text` as a string literal of the policy language."""
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
    return '"' + "".join(escapes.get(c, c) for c in text) + '"'


# Event parameters, conditions, actions and state variables named like
# Python words and like the generator's own names; every string literal
# above appears in a comparison, a builtin call and a set_attr value.
NAMES_SRC = """
Events {{ ApplicationSide {{
    send() = {{ SmsManager *.sendTextMessage(string ctx, string None) }}
    toggle() = {{ WifiManager *.setWifiEnabled(boolean class) }}
}} }}
Conditions {{
    ApplicationSide {{
        truth = {{ {matches} }}
        lambda = {{ local.v0 < 3 && local.ev == "" }}
        v0 = {{ class == true || local.undo }}
    }}
    GlobalSide {{
        None = {{ global.ctx >= 2 && size(global.f0) <= 4 }}
        gv = {{ starts_with(event.ctx, global.truth) }}
    }}
}}
Actions {{
    ApplicationSide {{
        at = {{ local.v0 := local.v0 + 1; local.ev := None; {set_attrs} }}
        lv = {{ local.undo := !local.undo; local.v0 := local.v0 + 1; }}
        EvalError = {{ block(); }}
    }}
    GlobalSide {{
        undo = {{ global.ctx := global.ctx + 1; global.truth := event.ctx; append(global.f0, now); prune_older(global.f0, seconds(3)); }}
    }}
}}
Rules {{
    class = send() | truth || !lambda -> at;
    send() | None && gv -> EvalError;
    None = send() | gv || !None -> undo;
    toggle() | v0 -> lv;
}}
"""


def names_source():
    matches = " || ".join(f"ctx == {dsl_string(s)} || contains(None, {dsl_string(s)})" for s in STRINGS)
    set_attrs = " ".join(f'set_attr("wifi_enabled", ctx == {dsl_string(s)});' for s in STRINGS)
    return NAMES_SRC.format(matches=matches, set_attrs=set_attrs)


def test_policy_text_is_data():
    spec = parse_policy(names_source())
    cp = validate_policy(spec)
    assert isinstance(cp, CompiledPolicy), cp
    send = CATALOG["SmsManager", "sendTextMessage"]
    trace = []
    for i, (to, body) in enumerate(itertools.product(STRINGS + ["x"], repeat=2)):
        trace.append(TraceEvent(1000 * i, "Messenger" if i % 3 else "Maps", send, (to, body)))
        if i % 5 == 0:
            trace.append(wifi(1000 * i + 1, i % 2 == 0, app="Maps"))
    for concurrent_same_t in (False, True):
        res = assert_runs_like_the_interpreter(cp, spec, trace, concurrent_same_t)
        assert any(v.decision == "Blocked" for v in res.verdicts)
    # the device's attributes are all that set_attr writes
    assert [name for name, _, _ in res.device.attrs.items_typed()] == ["wifi_enabled"]


def test_attribute_name_is_quoted_in_its_diagnostic():
    """A string that names no device attribute is one error at its
    `set_attr`, whose one-line diagnostic quotes it as a Python repr."""
    set_attrs = " ".join(f"set_attr({dsl_string(s)}, true);" for s in STRINGS)
    src = (
        "Events { e() = { SmsManager *.sendTextMessage(...) } } Conditions { c = { true } } "
        f"Actions {{ a = {{ {set_attrs} }} }} Rules {{ e() | c -> a; }}"
    )
    errors = validate_policy(parse_policy(src))
    starts = [i + 1 for i in range(len(src)) if src.startswith("set_attr(", i)]
    assert [(e.code, e.message, e.span) for e in errors] == [
        ("UnresolvedName", f"unknown device attribute {s!r}", (1, col)) for s, col in zip(STRINGS, starts)
    ]
    for e in errors:
        assert len(e.diagnostic().splitlines()) == 1


@pytest.mark.parametrize("text", STRINGS)
def test_string_literal_reads_back_as_written(text):
    spec = parse_policy(
        f"Events {{ }} Conditions {{ c = {{ starts_with(ctx, {dsl_string(text)}) }} }} Actions {{ }} Rules {{ }}"
    )
    body = spec.conditions[0].body
    code = codegen.compile_expr(body, {})
    for value in (text, text + "!", "x" + text, ""):
        ctx = EvalContext(GLOBAL_SIDE, 0, None, None, {"ctx": value}, None, None, None)
        assert code(ctx) is value.startswith(text) is eval_expr(body, ctx, {})


# the shape of the generated module

def test_one_compile_per_policy(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return compile(*args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting, raising=False)
    for pid in CORPUS_IDS:
        calls.clear()
        validate_policy(parse_policy(build_policy_source(pid)))
        assert len(calls) == 1, pid


def test_identical_bodies_share_one_function():
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    # seven calls, each with the same four guards over the same conditions
    guards = [rule.guard for rule in cp.rules]
    assert len(set(map(id, guards))) == 4
    assert guards[0] is guards[4] is guards[24]


def test_a_dropped_policy_leaves_no_cycle():
    # the generated functions are not in their own globals, so they go
    # with the last reference to the policy, without the collector
    cp = compile_corpus_policy("MsgCntLmtHr")
    functions = [weakref.ref(f) for f in (*cp.condition_code, *cp.action_code, *(r.guard for r in cp.rules))]
    gc.disable()
    try:
        del cp
        assert all(ref() is None for ref in functions)
    finally:
        gc.enable()
