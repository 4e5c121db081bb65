"""Generated code at the parser's nesting caps, and policy text that must
stay data.

`compile_policy` writes every body and guard of a policy as Python source
and compiles it once (`dcmon.lang.codegen`). Each shape that
`test_parser.py` caps is taken here at its cap, over state variables and
event parameters: it must validate, and its code must return or raise what
the tree interpreter of `reference_eval.py` returns or raises. So must policies whose strings and names look like Python, or like
the generator's own names: policy text reaches the generated source only as
the repr of a value or of a key. A `set_attr` may name only a device
attribute, so such a string there is an error whose diagnostic quotes it.
"""

import gc
import itertools
import re
import weakref

import pytest

from dcmon.catalog import CATALOG, DEVICE_ATTRS
from dcmon.corpus import CORPUS_IDS, build_policy_source, compile_corpus_policy
from dcmon.dsl import ParseError, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy
from dcmon.lang import APP_SIDE, GLOBAL_SIDE, EvalContext, VarStore
from dcmon.lang import codegen
from dcmon.lang.values import MS_PER_DAY, VType
from dcmon.sim import TraceEvent

from conftest import generate, wifi
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


def contexts(kinds):
    """Global-side contexts, as the central monitor builds them, over every
    mix of the stored values, with and without the event parameter, and
    one over an empty global store; `kinds` is the global store's table."""
    for b, n, on in itertools.product((False, True), (0, 1, 2, 2**62), (False, True, None)):
        gv = VarStore(kinds)
        gv.set("b", b)
        gv.set("n", n)
        gv.set("d", 3 * MS_PER_DAY + n)
        bindings = {} if on is None else {"on": on}
        yield EvalContext(GLOBAL_SIDE, 10 * MS_PER_DAY + 7, None, None, bindings, None, gv, VarStore(DEVICE_ATTRS))
    yield EvalContext(GLOBAL_SIDE, 0, None, None, {}, None, VarStore(kinds), VarStore(DEVICE_ATTRS))


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
            assert cp.guard_code[0](truth) is guard_value(spec.rules[0].guard, {"c": 0, "a": 1, "b": 2}, truth)
        return
    for ctx in contexts(cp.global_kinds):
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
    code = generate(lambda module: module.expr(body))
    for value in (text, text + "!", "x" + text, ""):
        # the condition reads an event parameter without `event.`: it is app-side
        ctx = EvalContext(APP_SIDE, 0, "Maps", "Maps", {"ctx": value}, VarStore({}), None, VarStore(DEVICE_ATTRS))
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


def corpus_functions(monkeypatch) -> list:
    """The source of every function generated for the ten corpus policies."""
    sources = []

    def keeping(*args, **kwargs):
        sources.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(codegen, "compile", keeping, raising=False)
    for pid in CORPUS_IDS:
        validate_policy(parse_policy(build_policy_source(pid)))
    return [f for source in sources for f in re.split(r"^(?=def )", source, flags=re.M) if f]


def test_generated_code_stores_no_kinds(monkeypatch):
    # a variable's kind is fixed at compile time: the corpus's generated
    # source writes values only, two lines per write. The bound is on the
    # bodies and guards, the functions of `ctx` or `truth`; each batch's
    # two functions write nothing themselves
    functions = corpus_functions(monkeypatch)
    assert not any("_kinds" in f for f in functions)
    bodies = [f for f in functions if re.match(r"def f\d+\((ctx|truth)\):", f)]
    assert sum(len(f.splitlines()) for f in bodies) <= 432


def test_generated_code_retests_nothing_validation_proves(monkeypatch):
    # a validated body runs only in a context of its side, which holds the
    # stores, the app's name and id and the event bindings that it reads,
    # and it reads only typed variables; a checked trace event has its
    # call's catalog arity: no generated line tests for them
    source = "".join(corpus_functions(monkeypatch))
    for check in ("SideFault", "ctx.side", "is None: raise", "len(args)"):
        assert check not in source


def test_batch_functions_stay_short(monkeypatch):
    # compile() costs about 8 us per generated line: the 22 batch functions
    # of the corpus add at most 520 lines to the bodies' and guards' 432
    functions = corpus_functions(monkeypatch)
    batches = [f for f in functions if re.match(r"def f\d+\((mon|cm), ", f)]
    assert len(batches) == 22
    assert sum(len(f.splitlines()) for f in batches) <= 520


def test_identical_bodies_share_one_function():
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    # seven calls, each with the same four guards over the same conditions
    guards = cp.guard_code
    assert len(set(map(id, guards))) == 4
    assert guards[0] is guards[4] is guards[24]


# a guard and an action body nested past `_MAX_DEPTH`, each of which calls
# functions split off from it
SPLIT_OFF_SRC = SHAPES_SRC.format(
    condition="true", value=right_nested(27, "global.b", "event.on"), guard=right_nested(40, "a", "b")
)


def test_a_dropped_policy_leaves_no_cycle(monkeypatch):
    # no generated function is in its module's globals, not even one split
    # off from a deep body or guard, so all of them go with the last
    # reference to the policy, without the collector
    built = []
    build = codegen.Module.build

    def keeping(module):
        functions = build(module)
        built.append([weakref.ref(f) for f in functions.values()])
        return functions

    monkeypatch.setattr(codegen.Module, "build", keeping)
    for src in (build_policy_source("MsgCntLmtHr"), SPLIT_OFF_SRC):
        gc.disable()
        try:
            cp = validate_policy(parse_policy(src))
            assert isinstance(cp, CompiledPolicy), cp
            del cp
            assert all(ref() is None for ref in built[-1]), src
        finally:
            gc.enable()


def test_alike_batches_share_their_functions():
    # OneHrPerSittingOnly's seven batches differ only in their rules' ids
    # and names, which each function reads from the batch it is handed
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    batches = [b for plans in cp.dispatch.values() for plan in plans for b in plan]
    assert len(batches) == 7
    assert len({b.local for b in batches} | {b.central for b in batches}) == 2


def test_a_dropped_policy_leaves_no_cycle_through_its_batches():
    # a batch holds its functions, which hold no batch
    cp = compile_corpus_policy("MsgCntLmtHr")
    batches = [b for plans in cp.dispatch.values() for plan in plans for b in plan]
    functions = [weakref.ref(f) for b in batches for f in (b.local, b.central) if f is not None]
    assert len(functions) == 2 * len(batches)
    del batches
    gc.disable()
    try:
        del cp
        assert all(ref() is None for ref in functions)
    finally:
        gc.enable()
