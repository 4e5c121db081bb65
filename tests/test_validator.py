import pytest

from dcmon.corpus import build_policy_source
from dcmon.dsl import analysis, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy

from conftest import MSG_QUOTA_SRC, WIFI_LISTING_SRC


def errors_of(src: str):
    result = validate_policy(parse_policy(src))
    assert isinstance(result, list), "expected validation errors"
    return result


def codes_of(src: str):
    return [e.code for e in errors_of(src)]


WRAP = "Events {{ {events} }} Conditions {{ {conditions} }} Actions {{ {actions} }} Rules {{ {rules} }}"


def wrap(events="", conditions="", actions="", rules=""):
    return WRAP.format(events=events, conditions=conditions, actions=actions, rules=rules)


SEND_EVENT = "ApplicationSide { sendBefore() = { SmsManager *.sendTextMessage(...) } }"
SEND_AFTER = (
    "ApplicationSide { sendAfter(bool sent) = { after SmsManager *.sendTextMessage(...) } uponReturning(sent) }"
)


def test_msg_quota_validates_clean():
    result = validate_policy(parse_policy(MSG_QUOTA_SRC))
    assert isinstance(result, CompiledPolicy)


def test_wifi_listing_validates_clean():
    result = validate_policy(parse_policy(WIFI_LISTING_SRC))
    assert isinstance(result, CompiledPolicy)


def test_unresolved_condition_in_rule():
    src = wrap(
        events=SEND_EVENT,
        actions="ApplicationSide { act = { } }",
        rules="sendBefore() | foo -> act;",
    )
    errs = errors_of(src)
    assert [e.code for e in errs] == ["UnresolvedName"]
    assert "foo" in errs[0].message


def test_global_condition_reading_bare_event_param_is_side_violation():
    src = wrap(
        events=SEND_AFTER,
        conditions="GlobalSide { quota = { sent == true } }",
        actions="GlobalSide { note = { global.n := global.n + 1; } }",
        rules="sendAfter() | quota -> note;",
    )
    codes = codes_of(src)
    assert "SideViolation" in codes


def test_global_condition_with_explicit_forward_is_legal():
    src = wrap(
        events=SEND_AFTER,
        conditions="GlobalSide { quota = { event.sent == true } }",
        actions="GlobalSide { note = { global.n := global.n + 1; } }",
        rules="sendAfter() | quota -> note;",
    )
    cp = validate_policy(parse_policy(src))
    assert isinstance(cp, CompiledPolicy)
    assert cp.rules[0].forwarded_params == ("sent",)


def test_app_condition_reading_global_state_is_side_violation():
    src = wrap(
        events=SEND_EVENT,
        conditions="ApplicationSide { c = { global.n >= 1 } }",
        actions="GlobalSide { note = { global.n := global.n + 1; } }",
        rules="sendBefore() | c -> note;",
    )
    assert "SideViolation" in codes_of(src)


def test_global_action_with_block_is_side_violation():
    src = wrap(
        events=SEND_EVENT,
        conditions="GlobalSide { c = { true } }",
        actions="GlobalSide { bad = { block(); } }",
        rules="sendBefore() | c -> bad;",
    )
    assert "SideViolation" in codes_of(src)


def test_app_action_writing_global_state_is_side_violation():
    src = wrap(
        events=SEND_EVENT,
        conditions="ApplicationSide { c = { true } }",
        actions="ApplicationSide { bad = { global.n := 1; } }",
        rules="sendBefore() | c -> bad;",
    )
    assert "SideViolation" in codes_of(src)


def test_inner_tag_disagreement():
    src = wrap(conditions="ApplicationSide { c = { globalSide { true } } }")
    assert "SideViolation" in codes_of(src)


def test_duplicate_names():
    src = wrap(conditions="GlobalSide { c = { true } c = { false } }")
    assert codes_of(src) == ["DuplicateName"]


def test_duplicate_rule_names():
    src = wrap(
        events=SEND_EVENT,
        conditions="ApplicationSide { c = { true } }",
        actions="ApplicationSide { a = { } }",
        rules="r = sendBefore() | c -> a; r = sendBefore() | c -> a;",
    )
    assert "DuplicateName" in codes_of(src)


def test_return_binding_on_before_event():
    src = wrap(
        events="ApplicationSide { e(bool ok) = { SmsManager *.sendTextMessage(...) } uponReturning(ok) }"
    )
    assert "ReturnBindingOnBeforeEvent" in codes_of(src)


def test_return_binding_must_be_declared():
    src = wrap(
        events="ApplicationSide { e() = { after SmsManager *.sendTextMessage(...) } uponReturning(ok) }"
    )
    assert "UnresolvedName" in codes_of(src)


def test_header_param_without_binding_flagged():
    src = wrap(events="ApplicationSide { e(bool stray) = { SmsManager *.sendTextMessage(...) } }")
    assert "UnboundParam" in codes_of(src)


def test_return_binding_collision_with_positional():
    src = wrap(
        events="ApplicationSide { e() = { after WifiManager *.setWifiEnabled(bool v) } uponReturning(v) }"
    )
    assert "ReturnBindingCollision" in codes_of(src)


def test_type_error_int_plus_bool():
    src = wrap(conditions="GlobalSide { c = { 1 + true == 2 } }")
    assert "TypeError" in codes_of(src)


def test_condition_must_be_bool():
    src = wrap(conditions="GlobalSide { c = { 1 + 2 } }")
    assert "TypeError" in codes_of(src)


def test_state_variable_read_but_never_written():
    src = wrap(conditions="GlobalSide { c = { global.ghost >= 1 } }")
    assert "UnresolvedName" in codes_of(src)


def test_state_kind_conflict():
    src = wrap(
        actions='GlobalSide { a = { global.x := 1; } b = { global.x := "s"; } }',
    )
    assert "TypeError" in codes_of(src)


def test_self_referential_counter_infers():
    src = wrap(
        events=SEND_EVENT,
        conditions="GlobalSide { c = { global.n >= 3 } }",
        actions="GlobalSide { inc = { global.n := global.n + 1; } }",
        rules="sendBefore() | c -> inc;",
    )
    cp = validate_policy(parse_policy(src))
    assert isinstance(cp, CompiledPolicy)
    from dcmon.lang.values import VType

    assert cp.state_types[("global", "n")] is VType.INT


def test_block_on_after_event_rejected():
    src = wrap(
        events=SEND_AFTER,
        conditions="ApplicationSide { ok = { sent == true } }",
        actions="ApplicationSide { deny = { block(); } }",
        rules="sendAfter() | ok -> deny;",
    )
    assert "BlockOnAfterEvent" in codes_of(src)


def test_condition_param_must_come_from_trigger():
    # `uses` is checked per rule: referencing a parameter the trigger does
    # not declare is an unresolved name
    src = wrap(
        events=SEND_EVENT,
        conditions="ApplicationSide { c = { sent == true } }",
        actions="ApplicationSide { a = { } }",
        rules="sendBefore() | c -> a;",
    )
    assert "UnresolvedName" in codes_of(src)


def test_unused_condition_checked_standalone():
    src = wrap(conditions="ApplicationSide { c = { sent == true } }")
    assert "UnresolvedName" in codes_of(src)


def test_all_errors_reported_not_just_first():
    src = wrap(
        conditions="GlobalSide { c = { 1 + true == 2 } d = { global.ghost >= 1 } }",
    )
    codes = codes_of(src)
    assert "TypeError" in codes and "UnresolvedName" in codes


def test_validation_is_deterministic():
    src = wrap(
        conditions="GlobalSide { c = { 1 + true == 2 } d = { global.ghost >= 1 } c = { false } }",
    )
    first = errors_of(src)
    second = errors_of(src)
    assert first == second


def test_validation_infers_kinds_once(monkeypatch):
    calls = []
    infer_state_types = analysis.infer_state_types

    def counted(*args, **kwargs):
        calls.append(args)
        return infer_state_types(*args, **kwargs)

    monkeypatch.setattr(analysis, "infer_state_types", counted)
    # compiling reuses the kinds that validation inferred
    assert isinstance(validate_policy(parse_policy(build_policy_source("MsgCntLmtHr"))), CompiledPolicy)
    assert len(calls) == 1


def test_unknown_trigger_adds_no_errors_to_the_bodies_it_runs():
    # the action types under e's parameters; only r2's trigger is wrong
    src = wrap(
        events="e() = { SmsManager *.sendTextMessage(string n, string text) }",
        conditions="c = { true }",
        actions="a = { local.x := n; }",
        rules="r1 = e() | c -> a; r2 = bogus() | c -> a;",
    )
    assert [(e.code, e.message) for e in errors_of(src)] == [("UnresolvedName", "unknown event 'bogus' in r2")]


def at(src: str, text: str):
    """The span of the first `text` in the one-line `src`."""
    return (1, src.index(text) + 1)


@pytest.mark.parametrize(
    "event, message",
    [
        (
            "e() = { Camera *.takePicture(...) }",
            "event 'e' intercepts unknown API Camera.takePicture",
        ),
        (
            "e() = { SmsManager *.sendTextMessage(int to, string body) }",
            "event 'e' declares parameter types (int, string) but SmsManager.sendTextMessage takes (string, string)",
        ),
        (
            "e(int sent) = { after SmsManager *.sendTextMessage(...) } uponReturning(sent)",
            "event 'e' binds the return of SmsManager.sendTextMessage as int, which returns bool",
        ),
    ],
    ids=["unknown-api", "parameter-types", "return-binding"],
)
def test_event_the_catalog_does_not_offer(event, message):
    src = wrap(events=f"ApplicationSide {{ {event} }}")
    assert [(e.code, e.message, e.span) for e in errors_of(src)] == [("CatalogMismatch", message, at(src, "e("))]


def test_device_attribute_written_as_another_kind():
    # the device models wifi_enabled as a bool
    src = wrap(
        events=SEND_EVENT,
        conditions="ApplicationSide { c = { true } }",
        actions='ApplicationSide { a = { set_attr("wifi_enabled", 5); } }',
        rules="sendBefore() | c -> a;",
    )
    assert [(e.code, e.message, e.span) for e in errors_of(src)] == [
        ("TypeError", "attribute wifi_enabled is bool, written as int", at(src, "set_attr"))
    ]


def test_set_attr_of_an_attribute_the_device_lacks():
    # the device's attributes are catalog.DEVICE_ATTRS, wifi_enabled alone
    src = wrap(
        events=SEND_EVENT,
        conditions="ApplicationSide { c = { true } }",
        actions='ApplicationSide { a = { set_attr("brightnes", 3); } }',
        rules="sendBefore() | c -> a;",
    )
    assert [(e.code, e.message, e.span) for e in errors_of(src)] == [
        ("UnresolvedName", "unknown device attribute 'brightnes'", at(src, "set_attr"))
    ]
