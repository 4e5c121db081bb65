"""Print/reparse round-trip checks, including randomized policy trees."""

import hypothesis.strategies as st
from hypothesis import given, settings

from dcmon.dsl import (
    ActionDecl,
    CallPattern,
    ConditionDecl,
    EventDecl,
    Param,
    Phase,
    PolicySpec,
    RuleDecl,
    Side,
    parse_policy,
    pretty_print,
)
from dcmon.lang.check import BUILTINS
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
from dcmon.lang.values import VType

from conftest import EMPTY_SRC, MSG_QUOTA_SRC, WIFI_LISTING_SRC


def roundtrips(spec: PolicySpec) -> None:
    printed = pretty_print(spec)
    reparsed = parse_policy(printed)
    assert reparsed == spec, printed


def test_empty_policy_prints_four_blocks():
    spec = parse_policy(EMPTY_SRC)
    printed = pretty_print(spec)
    assert printed.splitlines() == ["Events {", "}", "Conditions {", "}", "Actions {", "}", "Rules {", "}"]
    roundtrips(spec)


def test_msg_quota_roundtrip():
    roundtrips(parse_policy(MSG_QUOTA_SRC))


def test_wifi_listing_roundtrip():
    roundtrips(parse_policy(WIFI_LISTING_SRC))


def test_guard_negation_prints_without_extra_parens():
    src = (
        "Events { e() = { SmsManager *.sendTextMessage(...) } } "
        "Conditions { a = { true } b = { true } } Actions { act = { } } "
        "Rules { e() | !a && b -> act(); }"
    )
    spec = parse_policy(src)
    printed = pretty_print(spec)
    assert "!a && b" in printed
    roundtrips(spec)


def test_right_nested_guard_keeps_parens():
    src = (
        "Events { e() = { SmsManager *.sendTextMessage(...) } } "
        "Conditions { a = { true } b = { true } c = { true } } Actions { act = { } } "
        "Rules { e() | a && (b && c) -> act(); }"
    )
    spec = parse_policy(src)
    assert "a && (b && c)" in pretty_print(spec)
    roundtrips(spec)


# randomized policies

RESERVED = (
    {"true", "false", "now", "app_name", "app_id", "local", "global", "event",
     "after", "uponReturning", "block", "append", "prune_older", "set_attr"}
    | set(BUILTINS)
)


def _safe(name: str) -> bool:
    return name not in RESERVED and name.lower() not in ("applicationside", "globalside")


ident = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,6}", fullmatch=True).filter(_safe)
type_name = st.sampled_from(sorted(VType, key=lambda v: v.value))
side = st.sampled_from([Side.APPLICATION, Side.GLOBAL])
scalar_type = st.sampled_from([VType.BOOL, VType.INT, VType.STRING, VType.TIMESTAMP, VType.DURATION])

string_text = st.text(
    alphabet=st.sampled_from(list("abz09 _-/.\"\\\n\r\té")), max_size=8
)

literal = st.one_of(
    st.booleans().map(lambda b: Literal(VType.BOOL, b)),
    st.integers(min_value=0, max_value=10**6).map(lambda n: Literal(VType.INT, n)),
    string_text.map(lambda s: Literal(VType.STRING, s)),
)

varref = st.one_of(
    st.tuples(st.sampled_from(["event", "local", "global"]), ident).map(
        lambda t: VarRef(t[0], t[1], explicit=(t[0] == "event"))
    ),
    st.sampled_from(["now", "app_name", "app_id"]).map(lambda n: VarRef("ctx", n)),
)

_OPS = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]


def any_arity(children):
    """A builtin called with zero to two arguments."""
    return st.tuples(st.sampled_from(sorted(BUILTINS)), st.lists(children, max_size=2)).map(
        lambda t: Call(t[0], tuple(t[1]))
    )


def own_arity(children):
    """A builtin called with as many arguments as it takes."""
    return st.sampled_from(sorted(BUILTINS)).flatmap(
        lambda func: st.tuples(*[children] * len(BUILTINS[func][0])).map(lambda args: Call(func, args))
    )


def expressions_calling(calls):
    """Expression trees whose builtin calls `calls(children)` draws."""

    def extend(children):
        return st.one_of(
            children.map(lambda e: Unary("!", e)),
            st.tuples(st.sampled_from(_OPS), children, children).map(lambda t: Binary(t[0], t[1], t[2])),
            calls(children),
        )

    return st.recursive(st.one_of(literal, varref), extend, max_leaves=12)


def statements_over(expr):
    """Statements over the expressions `expr` draws."""
    return st.one_of(
        st.just(BlockStmt()),
        st.tuples(st.sampled_from(["local", "global"]), ident, expr).map(lambda t: Assign(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["local", "global"]), ident, expr).map(lambda t: AppendStmt(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["local", "global"]), ident, expr).map(lambda t: PruneStmt(t[0], t[1], t[2])),
        st.tuples(string_text, expr).map(lambda t: SetAttrStmt(t[0], t[1])),
    )


expr = expressions_calling(any_arity)
stmt = statements_over(expr)

param = st.tuples(ident, scalar_type).map(lambda t: Param(t[0], t[1]))

pattern = st.builds(
    CallPattern,
    api_namespace=st.from_regex(r"[A-Z][a-zA-Z0-9]{0,6}", fullmatch=True),
    method=ident,
    receiver_wildcard=st.booleans(),
    params=st.one_of(st.none(), st.lists(param, max_size=3).map(tuple)),
)


@st.composite
def event_decl(draw):
    phase = draw(st.sampled_from([Phase.BEFORE, Phase.AFTER]))
    header = draw(st.lists(param, max_size=2).map(tuple))
    return_binding = None
    if phase is Phase.AFTER and header and draw(st.booleans()):
        return_binding = header[0].name
    return EventDecl(
        name=draw(ident),
        side=draw(side),
        phase=phase,
        pattern=draw(pattern),
        header_params=header,
        return_binding=return_binding,
    )


condition_decl = st.builds(ConditionDecl, name=ident, side=side, body=expr)
action_decl = st.builds(ActionDecl, name=ident, side=side, body=st.lists(stmt, max_size=4).map(tuple))

guard = st.recursive(
    ident.map(lambda n: VarRef("cond", n)),
    lambda g: st.one_of(
        g.map(lambda e: Unary("!", e)),
        st.tuples(g, g).map(lambda t: Binary("&&", t[0], t[1])),
        st.tuples(g, g).map(lambda t: Binary("||", t[0], t[1])),
    ),
    max_leaves=8,
)

rule_decl = st.builds(
    RuleDecl,
    name=st.one_of(st.none(), ident),
    trigger=ident,
    guard=guard,
    actions=st.lists(ident, min_size=1, max_size=3).map(tuple),
)

policy = st.builds(
    PolicySpec,
    events=st.lists(event_decl(), max_size=4).map(tuple),
    conditions=st.lists(condition_decl, max_size=4).map(tuple),
    actions=st.lists(action_decl, max_size=4).map(tuple),
    rules=st.lists(rule_decl, max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(policy)
def test_random_policy_roundtrip(spec):
    roundtrips(spec)


@settings(max_examples=300, deadline=None)
@given(expr)
def test_random_expression_roundtrip(e):
    body = ConditionDecl(name="c", side=Side.APPLICATION, body=e)
    spec = PolicySpec(events=(), conditions=(body,), actions=(), rules=())
    roundtrips(spec)
