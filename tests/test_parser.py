import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dcmon.dsl import ParseError, Phase, Side, parse_policy
from dcmon.lang.nodes import Binary, Literal, VarRef
from dcmon.lang.values import VType

from conftest import EMPTY_SRC, MSG_QUOTA_SRC, WIFI_LISTING_SRC


def test_empty_policy():
    spec = parse_policy(EMPTY_SRC)
    assert (len(spec.events), len(spec.conditions), len(spec.actions), len(spec.rules)) == (0, 0, 0, 0)


def test_msg_quota_script_shape():
    spec = parse_policy(MSG_QUOTA_SRC)
    assert len(spec.events) == 2
    assert len(spec.conditions) == 2
    assert len(spec.actions) == 2
    assert len(spec.rules) == 2

    before, after = spec.events
    assert before.name == "sendMessageBefore"
    assert before.phase is Phase.BEFORE
    assert before.pattern.params is None  # (...) wildcard
    assert before.pattern.receiver_wildcard

    assert after.name == "sendMessageAfter"
    assert after.phase is Phase.AFTER
    assert after.return_binding == "sent"
    assert after.header_params[0].vtype is VType.BOOL

    assert spec.rules[0].trigger == "sendMessageBefore"
    assert spec.rules[0].actions == ("blockRequest",)


def test_wifi_listing_shape():
    spec = parse_policy(WIFI_LISTING_SRC)
    assert len(spec.events) == 1
    assert len(spec.conditions) == 2
    assert len(spec.actions) == 1
    assert len(spec.rules) == 1
    rule = spec.rules[0]
    assert rule.name == "blockWifiAfterHours"
    assert rule.actions == ("blockWifiRequest",)
    event = spec.events[0]
    assert event.side is Side.APPLICATION  # defaulted, no group
    assert event.pattern.params is not None and event.pattern.params[0].name == "enabled"
    # inner tags resolve declaration sides
    assert all(c.side is Side.APPLICATION for c in spec.conditions)


def test_block_keywords_case_insensitive():
    spec = parse_policy("events { } CONDITIONS { } Actions { } rules { }")
    assert spec.events == ()


def test_boolean_type_alias():
    spec = parse_policy(
        "Events { e() = { WifiManager *.setWifiEnabled(boolean enabled) } } "
        "Conditions { } Actions { } Rules { }"
    )
    assert spec.events[0].pattern.params[0].vtype is VType.BOOL


def test_guard_parens_on_condition_refs_optional():
    src = (
        "Events { e() = { SmsManager *.sendTextMessage(...) } } "
        "Conditions { a = { true } b = { true } } Actions { act = { } } "
        "Rules { e() | a() && b -> act; }"
    )
    rule = parse_policy(src).rules[0]
    assert rule.guard == Binary("&&", VarRef("cond", "a"), VarRef("cond", "b"))


def test_multiple_actions_comma_separated():
    src = (
        "Events { e() = { SmsManager *.sendTextMessage(...) } } "
        "Conditions { c = { true } } Actions { a1 = { } a2 = { } } "
        "Rules { e() | c -> a1(), a2; }"
    )
    assert parse_policy(src).rules[0].actions == ("a1", "a2")


def test_comments_ignored():
    src = "// header\nEvents { } // trailing\nConditions { } Actions { } Rules { }"
    assert parse_policy(src).events == ()


def test_line_and_column_in_errors():
    with pytest.raises(ParseError) as err:
        parse_policy("Events {\n  oops\n} Conditions { } Actions { } Rules { }")
    assert err.value.line == 3  # the '}' after 'oops' is unexpected: '(' wanted
    assert err.value.expected


def test_expected_token_set_reported():
    with pytest.raises(ParseError) as err:
        parse_policy("Nope { }")
    assert "Events" in err.value.expected


def test_backslash_rule_separator_rejected():
    src = (
        "Events { e() = { SmsManager *.sendTextMessage(...) } } "
        "Conditions { c = { true } } Actions { a = { } } "
        "Rules { e() \\ c -> a; }"
    )
    with pytest.raises(ParseError):
        parse_policy(src)


def test_blocks_required_in_order():
    with pytest.raises(ParseError):
        parse_policy("Conditions { } Events { } Actions { } Rules { }")
    with pytest.raises(ParseError):
        parse_policy("Events { } Conditions { } Actions { }")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_policy(EMPTY_SRC + " extra")


def test_unterminated_string():
    with pytest.raises(ParseError):
        parse_policy('Events { } Conditions { c = { contains(x, "oops) } } Actions { } Rules { }')


def test_deep_nesting_capped():
    body = "(" * 500 + "true" + ")" * 500
    src = f"Events {{ }} Conditions {{ c = {{ {body} }} }} Actions {{ }} Rules {{ }}"
    with pytest.raises(ParseError) as err:
        parse_policy(src)
    assert "nested" in err.value.message


@pytest.mark.parametrize(
    "make_guard, limit",
    [
        (lambda n: "(" * n + "a" + ")" * n, 66),
        (lambda n: "!" * n + "a", 198),
        (lambda n: " && ".join(["a"] * n), 200),
        (lambda n: " || ".join(["a"] * n), 200),
    ],
    ids=["parens", "not", "and_chain", "or_chain"],
)
def test_guard_nesting_capped(make_guard, limit):
    def rule_src(n):
        return (
            "Events { e() = { SmsManager *.sendTextMessage(...) } } "
            f"Conditions {{ a = {{ true }} }} Actions {{ act = {{ }} }} Rules {{ e() | {make_guard(n)} -> act; }}"
        )

    parse_policy(rule_src(limit))
    with pytest.raises(ParseError) as err:
        parse_policy(rule_src(limit + 1))
    assert err.value.message == "expression nested too deeply"


@pytest.mark.parametrize(
    "make_body, limit",
    [
        (lambda n: " || ".join(["true"] * n), 196),
        (lambda n: " && ".join(["true"] * n), 196),
        (lambda n: " + ".join(["1"] * n), 196),
        (lambda n: " * ".join(["1"] * n), 196),
        (lambda n: "!" * n + "true", 194),
        (lambda n: "(" * n + "true" + ")" * n, 27),
        (lambda n: "hour_of_day(" * n + "now" + ")" * n, 27),
    ],
    ids=["or_chain", "and_chain", "add_chain", "mul_chain", "not", "parens", "calls"],
)
def test_body_nesting_capped(make_body, limit):
    def cond_src(n):
        return f"Events {{ }} Conditions {{ c = {{ {make_body(n)} }} }} Actions {{ }} Rules {{ }}"

    parse_policy(cond_src(limit))
    with pytest.raises(ParseError) as err:
        parse_policy(cond_src(limit + 1))
    assert err.value.message == "expression nested too deeply"


_EVENT = "e() = { SmsManager *.sendTextMessage(...) }"
_UP_TO_RULES = f"Events {{ {_EVENT} }}\nConditions {{ c = {{ true }} }}\nActions {{ a = {{ }} }}\n"


@pytest.mark.parametrize(
    "src, where, message, expected",
    [
        (f"Events {{\n  {_EVENT}\n", (3, 1), "unterminated block", ("'}'",)),
        (_UP_TO_RULES + "Rules {\n  e() | c -> a;\n", (6, 1), "unterminated block", ("'}'",)),
        (f"Events {{\n  ApplicationSide {{\n    {_EVENT}\n", (4, 1), "unterminated side group", ("'}'",)),
        ("Events { }\nConditions { }\nActions {\n  a = { block();\n", (5, 1), "unterminated action body", ("'}'",)),
        (_UP_TO_RULES + "Rules {\n  ApplicationSide { e() | c -> a; }\n}", (5, 19), "unexpected punct '{'", ("'('",)),
    ],
    ids=["events_block", "rules_block", "side_group", "action_body", "side_group_in_rules"],
)
def test_unterminated_and_misplaced_braces_reported(src, where, message, expected):
    with pytest.raises(ParseError) as err:
        parse_policy(src)
    assert (err.value.line, err.value.col) == where
    assert err.value.message == message
    assert err.value.expected == expected


def test_long_or_chain_capped_not_crashing():
    body = " || ".join(["true"] * 5000)
    src = f"Events {{ }} Conditions {{ c = {{ {body} }} }} Actions {{ }} Rules {{ }}"
    with pytest.raises(ParseError):
        parse_policy(src)


def test_expression_precedence():
    src = "Events { } Conditions { c = { 1 + 2 * 3 == 7 } } Actions { } Rules { }"
    body = parse_policy(src).conditions[0].body
    assert isinstance(body, Binary) and body.op == "=="
    left = body.left
    assert isinstance(left, Binary) and left.op == "+"
    assert isinstance(left.right, Binary) and left.right.op == "*"


def test_event_namespace_prefix_parsed():
    src = "Events { } Conditions { c = { event.sent == true } } Actions { } Rules { }"
    body = parse_policy(src).conditions[0].body
    assert isinstance(body.left, VarRef)
    assert body.left.ns == "event" and body.left.explicit


def test_bare_identifier_is_event_param():
    src = "Events { } Conditions { c = { sent == true } } Actions { } Rules { }"
    body = parse_policy(src).conditions[0].body
    assert body.left.ns == "event" and not body.left.explicit


def test_literal_kinds():
    src = 'Events { } Conditions { c = { contains("abc", "b") } } Actions { } Rules { }'
    body = parse_policy(src).conditions[0].body
    assert all(isinstance(a, Literal) and a.vtype is VType.STRING for a in body.args)


def test_non_wildcard_receiver():
    src = "Events { e() = { SmsManager.sendTextMessage(...) } } Conditions { } Actions { } Rules { }"
    assert parse_policy(src).events[0].pattern.receiver_wildcard is False


def test_statement_forms():
    src = """
    Events { }
    Conditions { }
    Actions {
        GlobalSide {
            a = {
                global.n := global.n + 1;
                append(global.xs, now);
                prune_older(global.xs, hours(1));
                set_attr("brightness", 3);
            }
        }
    }
    Rules { }
    """
    action = parse_policy(src).actions[0]
    kinds = [type(s).__name__ for s in action.body]
    assert kinds == ["Assign", "AppendStmt", "PruneStmt", "SetAttrStmt"]


def test_parse_rejects_non_string_input():
    with pytest.raises(ParseError):
        parse_policy(b"Events { }")  # type: ignore[arg-type]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=200), st.binary(max_size=200).map(lambda b: b.decode("latin-1"))))
def test_parse_totality_on_arbitrary_text(text):
    try:
        parse_policy(text)
    except ParseError:
        pass
