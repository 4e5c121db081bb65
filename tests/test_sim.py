"""Device simulator: trace loading, the run loop, the phases it intercepts,
effect gating, rule atomicity and channel outages."""

import dataclasses
import gc
import json
import re
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from dcmon.catalog import API_OF_CALL, CATALOG, DeviceState, execute_effect
from dcmon.central_monitor import (
    Channel,
    ChannelError,
    CentralMonitor,
    GlobalState,
    check_asymmetry,
    replay_requests,
    snapshot,
)
from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.dsl import Phase, parse_policy, validate_policy
from dcmon.engine import CompiledPolicy, Locality, rules_for
from dcmon.lang.state import VarStore
from dcmon.lang.values import MS_PER_HOUR, MS_PER_MINUTE, MS_PER_SECOND, VType
from dcmon.local_monitor import LocalMonitor
from dcmon.sim import (
    ALLOWED,
    BLOCKED,
    NO_RULE,
    InvalidEvent,
    RunResult,
    TraceEvent,
    TraceFormatError,
    UnsortedTrace,
    VerdictEntry,
    _JSON_SPACE,
    _LINE_BREAKS,
    _execution_order,
    _parse_by_line,
    _parse_in_one_call,
    _split_lines,
    load_trace,
    parse_trace,
    run,
    run_unmonitored,
)
from dcmon import engine, local_monitor, sim
from dcmon.tracegen import make_bench_trace, make_trace

from conftest import Occurrence, compile_src, dial, end_call, intercept, phase_plans, plan_rules, send, sends_every, wifi
from test_batch_plan import policy_source, rule_lists


# trace parsing

def test_empty_trace_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    assert load_trace(p) == []


def test_three_line_sms_trace():
    text = "\n".join(
        '{"t_ms": %d, "app": "Messenger", "call": "SmsManager.sendTextMessage", "args": ["21234567", "hi"]}' % t
        for t in (0, 30_000, 90_000)
    )
    trace = parse_trace(text)
    assert [e.t for e in trace] == [0, 30_000, 90_000]
    assert trace[0].namespace == "SmsManager" and trace[0].method == "sendTextMessage"


def test_decreasing_timestamps_rejected():
    text = (
        '{"t_ms": 10, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["x", "y"]}\n'
        '{"t_ms": 5, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["x", "y"]}\n'
    )
    with pytest.raises(UnsortedTrace) as err:
        parse_trace(text)
    assert err.value.line == 2
    assert type(err.value) is UnsortedTrace
    assert str(err.value) == "line 2: timestamps must be nondecreasing"


_EV = '{"t_ms":1,"app":"A","call":"TelephonyManager.endCall","args":[]}'
_END_CALL = CATALOG["TelephonyManager", "endCall"]


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(line, message, id=line)
        for line, message in [
            ("not json", "line 1: invalid JSON: Expecting value"),
            ('{"t_ms": 1}', "line 1: missing fields: app, args, call"),
            ('{"t_ms": -1, "app": "A", "call": "TelephonyManager.endCall", "args": []}',
             "line 1: t_ms must be a nonnegative integer"),
            ('{"t_ms": 1, "app": "", "call": "TelephonyManager.endCall", "args": []}',
             "line 1: app must be a nonempty string"),
            ('{"t_ms": 1, "app": "A", "call": "Xy", "args": []}', "line 1: call must look like Namespace.method"),
            ('{"t_ms": 1, "app": "A", "call": "TelephonyManager.endCall", "args": 3}', "line 1: args must be a list"),
            ('{"t_ms": true, "app": "A", "call": "TelephonyManager.endCall", "args": []}',
             "line 1: t_ms must be a nonnegative integer"),
            ('{"t_ms": 1.0, "app": "A", "call": "TelephonyManager.endCall", "args": []}',
             "line 1: t_ms must be a nonnegative integer"),
            ("[1, 2]", "line 1: event must be a JSON object"),
        ]
    ]
    + [
        # a float, null, list or object is no catalog argument; no call
        # takes four
        pytest.param(_EV.replace("[]", "[1.5, null, [2], {}]"),
                     "line 1: 'TelephonyManager.endCall' takes 0 arguments, got 4", id="float-and-other-args"),
        pytest.param(_EV + ',{"t_ms":2,"app":"x"\n"call":"TelephonyManager.endCall","args":[]}',
                     "line 1: invalid JSON: Extra data", id="object-over-two-lines"),
        # joined with a bare comma, these three lines would read as three
        # valid objects, the second string running across a line break
        pytest.param(_EV + "," + _EV + '\n{"t_ms":3,"app":"x}\n{","call":"TelephonyManager.endCall","args":[]}',
                     "line 1: invalid JSON: Extra data", id="string-across-a-line"),
        # each line braced at both ends
        pytest.param('{"t_ms":1,"app":"a","call":"TelephonyManager.endCall","args":[{}\n{}]}',
                     "line 1: invalid JSON: Expecting ',' delimiter", id="nested-args-over-two-lines"),
        pytest.param(_EV + _EV, "line 1: invalid JSON: Extra data", id="two-objects-on-a-line"),
        pytest.param(_EV + "," + _EV, "line 1: invalid JSON: Extra data", id="two-objects-and-a-comma"),
        # three array elements on three lines, the middle one a list that
        # holds three objects
        pytest.param(_EV + ",[" + _EV + "\n" + _EV + "\n" + _EV + "]," + _EV, "line 1: invalid JSON: Extra data",
                     id="list-over-three-lines"),
    ],
)
def test_malformed_lines_rejected(text, message):
    with pytest.raises(TraceFormatError) as err:
        parse_trace(text)
    assert type(err.value) is TraceFormatError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "line, event",
    [
        # the last value of a duplicated key wins
        (_EV.replace("[]", "[],\"t_ms\":7"), TraceEvent(7, "A", _END_CALL, ())),
        (_EV.replace("[]", "[],\"extra\":1"), TraceEvent(1, "A", _END_CALL, ())),
    ],
    ids=["duplicate-t", "extra-key"],
)
def test_lines_beyond_plain_events_parse_as_they_did(line, event):
    assert parse_trace(_EV.replace(":1", ":0", 1) + "\n" + line) == [TraceEvent(0, "A", _END_CALL, ()), event]


@pytest.mark.parametrize("prefix", ["　", "\xa0", "\x1f", "\x85"])
def test_only_json_whitespace_pads_a_line(prefix):
    # str.strip() would remove each of these; json.loads rejects them
    with pytest.raises(TraceFormatError) as err:
        parse_trace(prefix + _EV)
    assert str(err.value) == "line 1: invalid JSON: Expecting value"
    assert parse_trace(" \t" + _EV + "\t \r\n\n  \t\n") == [TraceEvent(1, "A", _END_CALL, ())]


def test_too_deeply_nested_line_rejected():
    deep = '{"t_ms":1,"app":"A","call":"TelephonyManager.endCall","args":[%s]}' % ("[" * 100_000 + "]" * 100_000)
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_EV + "\n" + deep)
    assert str(err.value) == "line 2: invalid JSON: nested too deeply"


@pytest.mark.parametrize("field", ["t_ms", "arg"])
def test_integer_with_too_many_digits_rejected(field):
    big = "9" * 5000
    line = _EV.replace(":1", ":" + big, 1) if field == "t_ms" else _EV.replace("[]", f"[{big}]")
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_EV + "\n" + line)
    assert str(err.value) == "line 2: invalid JSON: integer has too many digits"


_TEXT = st.text('ab"\\{}[],: \x7f', max_size=4)
_PLAIN_ARG = st.one_of(st.booleans(), st.integers(-(2**70), 2**70), _TEXT)
# a catalog call and arguments of its parameter types
_MATCHING_CALLS = st.sampled_from(list(API_OF_CALL.values())).flatmap(
    lambda api: st.tuples(
        st.just(api.call), st.tuples(*(st.booleans() if vt is VType.BOOL else _TEXT for vt in api.param_types))
    )
)


@st.composite
def _calls(draw, seen):
    """A catalog call with matching args, or with a float among them, or
    with a bool's int or float look-alike, or with the wrong arity, or an
    unknown call. Half the time it repeats a call of `seen`, or its args
    under another call with the same parameter types."""
    if seen and draw(st.booleans()):
        call, args = draw(st.sampled_from(seen))
        api = API_OF_CALL.get(call)
        if api is not None and draw(st.booleans()):
            call = draw(st.sampled_from([c for c, a in API_OF_CALL.items() if a.param_types == api.param_types]))
    else:
        call, args = draw(_MATCHING_CALLS)
    args = list(args)
    # one line in four has a defect
    defect = draw(st.sampled_from(["float", "lookalike", "arity", "unknown"])) if draw(st.integers(0, 3)) == 0 else None
    if defect == "lookalike":  # 1 or 1.0 for true, 0 or 0.0 for false, equal and of equal hash
        pos = draw(st.integers(0, max(len(args) - 1, 0)))
        value = args[pos] if args and type(args[pos]) is bool else draw(st.booleans())
        args[pos:pos + 1] = [draw(st.sampled_from([int, float]))(value)]
    elif defect == "float":
        pos = draw(st.integers(0, len(args)))
        args[pos:pos + 1] = [draw(st.floats())]  # replaces args[pos], or appends
    elif defect == "arity":
        args = args[:-1] if args and draw(st.booleans()) else args + [draw(_PLAIN_ARG)]
    elif defect == "unknown":
        call = draw(st.sampled_from(["N.m", "Camera.takePicture"]))
    return call, args


_BREAKS = st.sampled_from(("\n",) + _LINE_BREAKS)
_PADS = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def trace_texts(draw):
    """A trace text of event lines, then mutated: lines joined or split, a
    brace dropped, args nested, keys duplicated or added, a float, bool,
    negative or too large t_ms, times swapped and blank lines. Some lines
    call the catalog with args of the wrong type or number, or with an int
    or float where a bool belongs, or call an unknown API; many repeat an
    earlier call or its args, and some app names are not ASCII. Lines are
    padded with JSON's space and tab, and each ends at any of the breaks
    that end a line, the last one too."""
    times = sorted(draw(st.lists(st.integers(0, 50), max_size=6)))
    lines = []
    seen = []
    for t in times:
        call, args = draw(_calls(seen))
        seen.append((call, args))
        doc = {"t_ms": t, "app": draw(st.sampled_from(["A", "Maps", "x y", "M\u00e4ps"])), "call": call, "args": args}
        sep = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
        lines.append(json.dumps(doc, separators=sep, ensure_ascii=draw(st.booleans())))
    mutations = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 10**6)), max_size=3))
    for kind, at in mutations:
        if not lines:
            break
        i = at % len(lines)
        line = lines[i]
        if kind == 0 and i + 1 < len(lines):  # two lines joined
            lines[i:i + 2] = [line + draw(st.sampled_from(["", ",", " "])) + lines[i + 1]]
        elif kind == 1:  # a line split
            cut = at % (len(line) + 1)
            lines[i:i + 1] = [line[:cut], line[cut:]]
        elif kind == 2:  # a brace dropped
            lines[i] = line[1:] if at % 2 else line[:-1]
        elif kind == 3:  # args nested
            lines[i] = line.replace('"args":', '"args": [{}, [1], ', 1)[:-1] + "]}"
        elif kind == 4:  # a key duplicated
            lines[i] = line[:-1] + ', "t_ms": %d}' % (at % 60)
        elif kind == 5:  # a key added
            lines[i] = line[:-1] + ', "x": 1}'
        elif kind in (6, 7, 8, 9):  # a float, bool, negative or too large t_ms
            value = {6: "%d.0", 7: "true", 8: "-%d", 9: "922337203685477580%d"}[kind].replace("%d", str(at % 10))
            lines[i] = re.sub(r'"t_ms": ?\d+', '"t_ms": ' + value, line, count=1)
        elif kind == 10 and i + 1 < len(lines):  # two lines swapped
            lines[i], lines[i + 1] = lines[i + 1], line
        elif kind == 11:  # a blank line
            lines.insert(i, draw(st.sampled_from(["", " \t", "\t"])))
    lines = [draw(_PADS) + line + draw(_PADS) for line in lines]
    # the last line ends at no break, one or two
    ends = [draw(_BREAKS) for _ in lines[1:]] + ["".join(draw(st.lists(_BREAKS, max_size=2)))]
    return "".join(line + end for line, end in zip(lines, ends))


def _reference_lines(text):
    """The lines of `text` as `_split_lines` finds them in text that is not
    ASCII: each break of `_LINE_BREAKS` read as "\n"."""
    for brk in _LINE_BREAKS:
        text = text.replace(brk, "\n")
    return [line.strip(_JSON_SPACE) for line in text.split("\n")]


def _sharing(events):
    """For each event, the first event with an equal app and the first
    event of the same call with equal args. Asserts that these are the
    first events whose app and args are the same objects as its own."""
    firsts = [(next(i for i, e in enumerate(events) if e.app == ev.app),
               next(i for i, e in enumerate(events) if e.api is ev.api and e.args == ev.args)) for ev in events]
    assert firsts == [(next(i for i, e in enumerate(events) if e.app is ev.app),
                       next(i for i, e in enumerate(events) if e.args is ev.args)) for ev in events]
    return firsts


def _outcome(parse, text):
    try:
        events = parse(text)
    except TraceFormatError as ex:
        return type(ex), ex.line, str(ex)
    return repr(events), _sharing(events)  # repr tells True from 1 and 1.0 from 1


@settings(max_examples=400, deadline=None)
@given(trace_texts())
def test_parse_trace_matches_the_per_line_loop(text):
    assert _outcome(parse_trace, text) == _outcome(lambda text: _parse_by_line(_reference_lines(text)), text)


@settings(max_examples=300, deadline=None)
@given(st.text("{} \tx\n" + "".join(_LINE_BREAKS), max_size=30))
def test_ascii_text_splits_into_the_same_nonblank_lines(text):
    # str.splitlines() on ASCII text, seven replaces and a split elsewhere
    assert [(n, line) for n, line in enumerate(_split_lines(text), 1) if line] == [
        (n, line) for n, line in enumerate(_reference_lines(text), 1) if line
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "Maps", "M\u00e4ps", "\u5730\u56fe"]), _MATCHING_CALLS,
                          st.booleans()), max_size=6))
def test_plain_events_parse_in_one_call(events):
    text = "".join(json.dumps({"t_ms": t, "app": app, "call": call, "args": args}, ensure_ascii=escape) + "\n"
                   for t, (app, (call, args), escape) in enumerate(events))
    lines = _split_lines(text)
    assert repr(_parse_in_one_call(lines)) == repr(_parse_by_line(lines))


def test_events_of_one_call_share_its_catalog_entry():
    a, _, b = parse_trace("\n".join([_send_at(0), _EV, _send_at(1)]))
    assert a.api is b.api is CATALOG["SmsManager", "sendTextMessage"]
    # the event holds its entry, and no namespace or method strings
    assert TraceEvent.__slots__ == ("t", "app", "api", "args")


# both parse paths: the one-call parse, and the per-line loop it falls back to
_PARSERS = [pytest.param(parse_trace, id="parse_trace"),
            pytest.param(lambda text: _parse_by_line(_split_lines(text)), id="per-line")]
_WIFI_LINE = '{"t_ms": %d, "app": "A", "call": "WifiManager.setWifiEnabled", "args": [%s]}'


@pytest.mark.parametrize("parse", _PARSERS)
@pytest.mark.parametrize("first, second, line", [("true", "1", 2), ("1", "true", 1)])
def test_equal_args_of_another_type_are_rejected_as_before(parse, first, second, line):
    # (True,) == (1,) and their hashes are equal, yet no event shares an
    # args tuple before the constructor has accepted its own
    with pytest.raises(TraceFormatError) as err:
        parse(_WIFI_LINE % (0, first) + "\n" + _WIFI_LINE % (1, second))
    assert type(err.value) is TraceFormatError
    assert str(err.value) == f"line {line}: argument 0 of 'WifiManager.setWifiEnabled' must be bool, got 1"


def _call_line(t, app, call, *args):
    return json.dumps({"t_ms": t, "app": app, "call": call, "args": list(args)})


@pytest.mark.parametrize("parse", _PARSERS)
def test_events_share_equal_apps_and_the_equal_args_of_one_call(parse):
    sms, dial_, url = "SmsManager.sendTextMessage", "TelephonyManager.dialCall", "WebBrowser.requestUrl"
    a, b, c, d, e, f = parse("\n".join([
        _call_line(0, "Maps", sms, "x", "y"),
        _call_line(1, "Chat", sms, "x", "y"),
        _call_line(2, "Maps", dial_, "x"),
        _call_line(3, "Chat", url, "x"),
        _call_line(4, "Maps", dial_, "x"),
        _call_line(5, "Chat", "WifiManager.setWifiEnabled", True),
    ]))
    assert a.app is c.app is e.app and b.app is d.app is f.app
    assert a.args is b.args and c.args is e.args
    # equal args of two calls are not shared: each catalog entry has its
    # own table, which holds only tuples of the entry's parameter types
    assert c.args == d.args and c.args is not d.args


def test_hand_built_events_are_left_as_they_are():
    app, args = "".join(["Ma", "ps"]), tuple(["x", "y"])
    ev = TraceEvent(0, app, CATALOG["SmsManager", "sendTextMessage"], args)
    parsed = parse_trace(_call_line(0, "Maps", "SmsManager.sendTextMessage", "x", "y"))
    twin = TraceEvent(0, "".join(["Ma", "ps"]), ev.api, tuple(["x", "y"]))
    assert ev.app is app and ev.args is args
    assert parsed == [ev] == [twin] and twin.app is not app and twin.args is not args


def test_a_parsed_trace_retains_at_most_160_bytes_per_event():
    # without sharing, each event keeps its own app string, argument
    # strings and args tuple: about 250 bytes per event
    text = "".join(ev.to_json() + "\n" for ev in make_bench_trace(per_kind=1000))
    parse_trace(text)  # anything built once per process is built here
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = parse_trace(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(events) == 7000
    assert retained / len(events) <= 160


@pytest.mark.parametrize(
    "line, event",
    [
        (_EV.replace('"A"', '"M\u00e4ps"'), TraceEvent(1, "M\u00e4ps", _END_CALL, ())),
        (_EV.replace('"A"', '"M\\u00e4ps"'), TraceEvent(1, "M\u00e4ps", _END_CALL, ())),
        ('{"t_ms": 1, "app": "A", "call": "WebBrowser.requestUrl", "args": ["\\ud83d\\ude00"]}',
         TraceEvent(1, "A", CATALOG["WebBrowser", "requestUrl"], ("\U0001f600",))),
        ('{"t_ms": 1, "app": "A", "call": "WebBrowser.requestUrl", "args": ["http://a.example/\u2028"]}',
         TraceEvent(1, "A", CATALOG["WebBrowser", "requestUrl"], ("http://a.example/\u2028",))),
    ],
    ids=["raw-non-ascii-app", "escaped-non-ascii-app", "escaped-surrogate-pair-arg", "raw-u2028-in-url"],
)
def test_non_ascii_text_parses_in_one_call(monkeypatch, line, event):
    def per_line_loop(lines):
        raise AssertionError("fell back to the per-line loop")

    monkeypatch.setattr(sim, "_parse_by_line", per_line_loop)
    assert parse_trace(_EV + "\n" + line) == [TraceEvent(1, "A", _END_CALL, ()), event]


def _send_at(t):
    return f'{{"t_ms": {t}, "app": "A", "call": "SmsManager.sendTextMessage", "args": ["x", "y"]}}'


@pytest.mark.parametrize("t", [2**63, 2**70])
def test_timestamp_beyond_int64_rejected(t):
    # the value model's timestamps are int64; a larger clock would make
    # `global.msgDay := now` fault with Overflow halfway through a rule
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_send_at(0) + "\n" + _send_at(t))
    assert err.value.line == 2


def test_largest_int64_timestamp_accepted():
    (ev,) = parse_trace(_send_at(2**63 - 1))
    assert ev.t == 2**63 - 1


SEND_LINE = '{"t_ms": 1, "app": %s, "call": "SmsManager.sendTextMessage", "args": [%s, "y"]}'


@pytest.mark.parametrize(
    "line",
    [
        SEND_LINE % ('"A\\ud800"', '"x"'),  # an escaped lone high surrogate in the app
        SEND_LINE % ('"A"', '"\\udc00x"'),  # an escaped lone low surrogate in an argument
        SEND_LINE % ('"A"', '"\udc00"'),  # a raw lone surrogate in text built in memory
        SEND_LINE % ('"A"', '[["\\ud800"]]'),  # escaped, in a list nested in an argument
        '{"t_ms": 1, "app": "A", "call": "SmsManager.send\\ud800", "args": []}',  # escaped, in the call
    ],
    ids=["escaped_app", "escaped_arg", "raw_arg", "escaped_nested_arg", "escaped_call"],
)
def test_string_without_utf8_encoding_rejected(line):
    # such a string would reach the state snapshot, whose byte count
    # (state_size) encodes every string as UTF-8
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_send_at(0) + "\n" + line)
    assert type(err.value) is TraceFormatError
    assert str(err.value) == "line 2: app, call and args must be encodable as UTF-8"


def test_escaped_unicode_accepted():
    # an escaped surrogate pair is one character, and encodes
    (ev,) = parse_trace(SEND_LINE % ('"\\u00e9"', '"\\ud83d\\ude00"'))
    assert (ev.app, ev.args) == ("\u00e9", ("\U0001f600", "y"))
    # ... but no longer in a nested list, which is no catalog argument
    with pytest.raises(TraceFormatError) as err:
        parse_trace(SEND_LINE % ('"A"', '[["\\ud83d\\ude00"]]'))
    assert str(err.value) == "line 1: argument 0 of 'SmsManager.sendTextMessage' must be string, got [['\U0001f600']]"


def test_unicode_line_separators_inside_a_string_split_no_line():
    # JSON allows U+0085, U+2028 and U+2029 raw inside a string, and
    # str.splitlines() breaks at all three
    urls = ["http://a.example/\u0085", "http://b.example/\u2028", "http://c.example/\u2029"]
    lines = [
        '{"t_ms": %d, "app": "Browser", "call": "WebBrowser.requestUrl", "args": ["%s"]}' % (t, url)
        for t, url in enumerate(urls)
    ]
    trace = parse_trace("\n".join(lines))
    assert [ev.args for ev in trace] == [(url,) for url in urls]
    with pytest.raises(TraceFormatError) as err:
        parse_trace("\n".join(lines + [_EV.replace(":1", ":-1", 1)]))
    assert err.value.line == 4
    assert str(err.value) == "line 4: t_ms must be a nonnegative integer"


def test_each_line_break_json_cannot_hold_raw_ends_one_line():
    breaks = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
    lines = ['{"t_ms": %d, "app": "A", "call": "WifiManager.setWifiEnabled", "args": [true]}' % t
             for t in range(len(breaks))]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    assert [ev.t for ev in parse_trace(text)] == list(range(len(breaks)))
    with pytest.raises(TraceFormatError) as err:
        parse_trace(text + _EV.replace(":1", ":-1", 1))
    assert str(err.value) == f"line {len(breaks) + 1}: t_ms must be a nonnegative integer"


def test_trace_roundtrip_through_file(tmp_path):
    from dcmon.sim import write_trace

    trace = [send(0), wifi(5, True), dial(10)]
    p = tmp_path / "t.jsonl"
    write_trace(p, trace)
    assert load_trace(p) == trace


# catalog checks

def test_unknown_api_in_trace():
    with pytest.raises(TraceFormatError) as err:
        parse_trace(_send_at(0) + '\n{"t_ms": 1, "app": "A", "call": "Camera.takePicture", "args": []}')
    assert str(err.value) == "line 2: unknown API 'Camera.takePicture'"


def test_bad_arg_type_in_trace():
    # an event built by hand is checked as it is built, before any run
    with pytest.raises(InvalidEvent) as err:
        TraceEvent(0, "A", CATALOG["SmsManager", "sendTextMessage"], (1, 2))
    assert str(err.value) == "argument 0 of 'SmsManager.sendTextMessage' must be string, got 1"
    # dataclasses.replace goes through the same constructor
    with pytest.raises(InvalidEvent) as err:
        dataclasses.replace(send(0), args=("21234567", 2.5))
    assert str(err.value) == "argument 1 of 'SmsManager.sendTextMessage' must be string, got 2.5"


_SMS, _WIFI, _CAMERA = "SmsManager.sendTextMessage", "WifiManager.setWifiEnabled", "Camera.takePicture"
_HI = ["21234567", "hi"]


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([(10, _SMS, _HI), (0, _SMS, _HI)], UnsortedTrace, "line 2: timestamps must be nondecreasing"),
        ([(0, _SMS, _HI), (1, _CAMERA, [])], TraceFormatError, "line 2: unknown API 'Camera.takePicture'"),
        ([(0, _WIFI, [])], TraceFormatError, "line 1: 'WifiManager.setWifiEnabled' takes 1 arguments, got 0"),
        (
            [(0, "TelephonyManager.endCall", ["x"])],
            TraceFormatError,
            "line 1: 'TelephonyManager.endCall' takes 0 arguments, got 1",
        ),
        ([(0, _SMS, [1, 2])], TraceFormatError, "line 1: argument 0 of 'SmsManager.sendTextMessage' must be string, got 1"),
        (
            [(0, "TelephonyManager.dialCall", [True])],
            TraceFormatError,
            "line 1: argument 0 of 'TelephonyManager.dialCall' must be string, got True",
        ),
        ([(0, _WIFI, [1])], TraceFormatError, "line 1: argument 0 of 'WifiManager.setWifiEnabled' must be bool, got 1"),
        # a call that passed once is checked again at its next line
        (
            [(0, _SMS, _HI), (1, _SMS, ["21234567", None])],
            TraceFormatError,
            "line 2: argument 1 of 'SmsManager.sendTextMessage' must be string, got None",
        ),
        # several defects: the first failing line is reported ...
        (
            [(0, _SMS, _HI), (5, _WIFI, ["yes"]), (6, _CAMERA, []), (1, _SMS, _HI)],
            TraceFormatError,
            "line 2: argument 0 of 'WifiManager.setWifiEnabled' must be bool, got 'yes'",
        ),
        (
            [(0, _SMS, _HI), (1, _CAMERA, [1]), (0, _SMS, _HI), (2, _SMS, [3])],
            TraceFormatError,
            "line 2: unknown API 'Camera.takePicture'",
        ),
        # ... so an earlier line's time order before a later line's API or
        # arity ...
        (
            [(0, _SMS, _HI), (10, _SMS, _HI), (5, _SMS, _HI), (6, _CAMERA, [])],
            UnsortedTrace,
            "line 3: timestamps must be nondecreasing",
        ),
        ([(10, _SMS, _HI), (5, _SMS, _HI), (6, _SMS, [1])], UnsortedTrace, "line 2: timestamps must be nondecreasing"),
        # ... and within one line, its own defects before its time order,
        # the API before the arity, the arity before the argument types
        ([(0, _SMS, _HI), (10, _SMS, _HI), (5, _CAMERA, [])], TraceFormatError, "line 3: unknown API 'Camera.takePicture'"),
        (
            [(10, _SMS, _HI), (5, _SMS, [1])],
            TraceFormatError,
            "line 2: 'SmsManager.sendTextMessage' takes 2 arguments, got 1",
        ),
        (
            [(0, _SMS, _HI), (1, _SMS, [1]), (2, _WIFI, ["no"])],
            TraceFormatError,
            "line 2: 'SmsManager.sendTextMessage' takes 2 arguments, got 1",
        ),
    ],
    ids=[
        "unsorted",
        "unknown-api",
        "too-few-args",
        "too-many-args",
        "int-for-string",
        "bool-for-string",
        "int-for-bool",
        "second-arg-of-a-seen-call",
        "first-of-arg-api-defects",
        "first-of-api-order-arity-defects",
        "order-before-api",
        "order-before-arity",
        "api-before-order",
        "arity-before-order",
        "arity-before-argument",
    ],
)
@pytest.mark.parametrize("monitored", [True, False], ids=["run", "run_unmonitored"])
def test_trace_rejection_names_the_first_defect(rows, error, message, monitored):
    """A trace text meets its first defect as it is loaded, on its way to
    either replay. Built by hand, a list holds only events that passed
    their own check, and the replay checks their time order."""
    cp = compile_corpus_policy("MsgCntLmt")
    replay = (lambda trace: run(trace, cp)) if monitored else run_unmonitored
    text = "\n".join(json.dumps({"t_ms": t, "app": "A", "call": call, "args": args}) for t, call, args in rows)
    with pytest.raises(TraceFormatError) as err:
        replay(parse_trace(text))
    assert type(err.value) is error
    assert str(err.value) == message
    if error is UnsortedTrace:
        # the lines up to the first defect, built by hand, meet it in the replay
        trace = [TraceEvent(t, "A", API_OF_CALL[call], tuple(args)) for t, call, args in rows[: err.value.line]]
        with pytest.raises(UnsortedTrace) as err:
            replay(trace)
        assert str(err.value) == message


class _Text(str):
    pass


@pytest.mark.parametrize(
    "args_of",
    [list, lambda args: tuple(_Text(a) if type(a) is str else a for a in args)],
    ids=["list-args", "str-subclass-args"],
)
def test_args_of_other_types_replay_like_plain_ones(args_of):
    trace = make_trace(5, max_events=300)
    other = [dataclasses.replace(ev, args=args_of(ev.args)) for ev in trace]
    assert run_unmonitored(other).verdict_lines() == run_unmonitored(trace).verdict_lines()
    for pid in CORPUS_IDS:
        cp = compile_corpus_policy(pid)
        want, got = run(trace, cp), run(other, cp)
        assert got.verdict_lines() == want.verdict_lines(), pid
        assert got.snapshot == want.snapshot, pid
        assert got.channel_lines() == want.channel_lines(), pid


def test_policy_pattern_type_mismatch_detected():
    src = """
    Events { ApplicationSide { e() = { WifiManager *.setWifiEnabled(string enabled) } } }
    Conditions { ApplicationSide { c = { enabled == "x" } } }
    Actions { ApplicationSide { a = { block(); } } }
    Rules { e() | c -> a; }
    """
    assert [e.diagnostic() for e in validate_policy(parse_policy(src))] == [
        "2:32: CatalogMismatch: event 'e' declares parameter types (string) but WifiManager.setWifiEnabled takes (bool)"
    ]


def test_policy_unknown_api_detected():
    src = """
    Events { ApplicationSide { e() = { Camera *.takePicture(...) } } }
    Conditions { ApplicationSide { c = { true } } }
    Actions { ApplicationSide { a = { block(); } } }
    Rules { e() | c -> a; }
    """
    assert [e.diagnostic() for e in validate_policy(parse_policy(src))] == [
        "2:32: CatalogMismatch: event 'e' intercepts unknown API Camera.takePicture"
    ]


# run loop

def test_501_sends_blocks_the_501st():
    cp = compile_corpus_policy("MsgCntLmt")
    trace = sends_every(MS_PER_SECOND, 501)
    res = run(trace, cp)
    decisions = res.decisions()
    assert decisions[:500] == ["Allowed"] * 500
    assert decisions[500] == "Blocked"
    assert res.verdicts[500].reason == "denySendOverQuota"


def test_device_centric_aggregation_across_apps():
    cp = compile_corpus_policy("MsgCntLmt")
    apps = [f"App{i}" for i in range(5)]
    trace = sends_every(MS_PER_SECOND, 501, apps=apps)
    res = run(trace, cp)
    assert res.decisions().count("Blocked") == 1
    assert res.decisions()[500] == "Blocked"  # the 501st combined send


def test_msg_gap_policy_blocks_at_30s_allows_at_61s():
    cp = compile_corpus_policy("MsgTimeLmt")
    res = run([send(0), send(30 * MS_PER_SECOND)], cp)
    assert res.decisions() == ["Allowed", "Blocked"]
    res = run([send(0), send(61 * MS_PER_SECOND)], cp)
    assert res.decisions() == ["Allowed", "Allowed"]


# every dial after the first is blocked; local.ended keeps what the last
# endCall returned: whether a call was active
DIAL_ONCE_SRC = """
Events { ApplicationSide {
    dialB() = { TelephonyManager *.dialCall(...) }
    endA(bool ended) = { after TelephonyManager *.endCall(...) } uponReturning(ended)
} }
Conditions { ApplicationSide { dialed = { local.dials >= 1 } always = { true } } }
Actions { ApplicationSide {
    deny = { block(); }
    count = { local.dials := local.dials + 1; }
    record = { local.ended := event.ended; }
} }
Rules { dialB() | dialed -> deny; dialB() | always -> count; endA() | always -> record; }
"""


def test_effect_gating_blocked_call_leaves_no_device_effect():
    cp = compile_src(DIAL_ONCE_SRC)
    res = run([dial(0), end_call(1), dial(2)], cp)
    assert res.decisions() == ["Allowed", "Allowed", "Blocked"]
    assert res.local_states["Messenger"].get("ended", VType.BOOL) is True
    # the blocked dial started no call, so the endCall after it finds none
    assert res.device.call_active is False
    res = run([dial(0), end_call(1), dial(2), end_call(3)], cp)
    assert res.decisions() == ["Allowed", "Allowed", "Blocked", "Allowed"]
    assert res.local_states["Messenger"].get("ended", VType.BOOL) is False
    # after occurrences exist only for executed calls: the counter is capped
    res = run(sends_every(MS_PER_SECOND, 502), compile_corpus_policy("MsgCntLmt"))
    assert res.decisions().count("Blocked") == 2
    assert res.global_state.vars.get("msgCount", VType.INT) == 500


# the device model: each catalog entry states its effect, which
# execute_effect carries out; four entries touch no state
STATELESS = {"sendTextMessage", "requestUrl", "openFile", "launchApp"}
SAMPLE_ARG = {VType.BOOL: True, VType.STRING: "21234567"}


@pytest.mark.parametrize("entry", list(CATALOG.values()), ids=lambda entry: entry.call)
@pytest.mark.parametrize("call_active", [False, True])
def test_catalog_entry_declares_what_execute_effect_does(entry, call_active):
    args = tuple(SAMPLE_ARG[vt] for vt in entry.param_types)
    device = DeviceState(call_active=call_active)
    want = DeviceState(call_active=call_active if entry.sets_call is None else entry.sets_call)
    if entry.writes_attr is not None:
        want.attrs.set(entry.writes_attr, args[0])
    ret = execute_effect(entry, args, device)
    assert ret is (call_active if entry.returns is None else entry.returns)
    assert type(ret) is bool and entry.return_type is VType.BOOL
    assert device == want
    if entry.method in STATELESS:
        assert (entry.constant_return, entry.writes_attr, entry.sets_call) == (True, None, None)
    else:
        assert entry.constant_return is None
        assert (entry.writes_attr, entry.sets_call) != (None, None)


def test_wifi_block_prevents_attribute_change():
    cp = compile_corpus_policy("WiFiLmt")
    res = run([wifi(14 * MS_PER_HOUR, True)], cp)
    assert res.decisions() == ["Blocked"]
    assert res.device.attrs.get("wifi_enabled", VType.BOOL) is False
    res = run([wifi(9 * MS_PER_HOUR, True)], cp)
    assert res.decisions() == ["Allowed"]
    assert res.device.attrs.get("wifi_enabled", VType.BOOL) is True


def test_unsorted_trace_rejected_by_run():
    cp = compile_corpus_policy("MsgCntLmt")
    with pytest.raises(UnsortedTrace):
        run([send(10), send(0)], cp)


def test_event_of_an_entry_that_is_not_the_catalogs_rejected_by_run():
    # run() maps the catalog's own entries, which compare by identity
    copy = dataclasses.replace(CATALOG["SmsManager", "sendTextMessage"])
    with pytest.raises(InvalidEvent, match="event 1 holds an entry for 'SmsManager.sendTextMessage' that is not"):
        run([send(0), TraceEvent(1, "Messenger", copy, ("21234567", "hi"))], compile_corpus_policy("MsgCntLmt"))


def test_run_unmonitored_all_allowed_and_channel_silent():
    trace = sends_every(MS_PER_SECOND, 50) + [wifi(60 * MS_PER_SECOND, True)]
    res = run_unmonitored(trace)
    assert res.decisions() == ["Allowed"] * 51
    assert res.channel_entries == []
    again = run_unmonitored(trace)
    assert again.verdict_lines() == res.verdict_lines()


def test_verdict_log_field_names():
    import json

    cp = compile_corpus_policy("MsgCntLmt")
    res = run([send(0)], cp)
    doc = json.loads(res.verdicts[0].to_json())
    assert set(doc) == {"t_ms", "app", "call", "decision", "reason", "latency_ns"}
    assert doc["decision"] == "Allowed" and doc["reason"] == "no rule"


def test_channel_log_field_names():
    import json

    cp = compile_corpus_policy("MsgCntLmt")
    res = run([send(0)], cp)
    assert res.channel_entries
    doc = json.loads(res.channel_entries[0].to_json())
    assert set(doc) == {"direction", "seq", "t", "app_id", "rule_id", "payload"}


def test_determinism_byte_identical():
    cp = compile_corpus_policy("MsgCntLmtHr")
    trace = sends_every(20 * MS_PER_SECOND, 300)
    a = run(trace, cp)
    b = run(trace, cp)
    assert a.verdict_lines() == b.verdict_lines()
    assert a.snapshot == b.snapshot
    assert a.channel_lines() == b.channel_lines()


def test_concurrent_request_log_rebuilds_snapshot():
    cp = compile_corpus_policy("MsgCntLmtHr")
    trace = sends_every(0, 120, apps=["A", "B", "C"])
    res = run(trace, cp, concurrent_same_t=True)
    rebuilt = replay_requests(cp, res.channel_entries, res.initial_global)
    assert snapshot(rebuilt) == res.snapshot


@pytest.mark.parametrize(
    "trace, expected",
    [
        (
            [send(0, "A"), send(0, "B"), send(0, "A"), send(5, "C"), send(5, "B"), send(5, "C")],
            [0, 2, 1, 3, 5, 4],
        ),
        # one group long enough that threads racing for it would interleave
        (sends_every(0, 3000, apps=[f"App{i}" for i in range(5)]), [i for a in range(5) for i in range(a, 3000, 5)]),
    ],
    ids=["two-groups", "3000-sends"],
)
def test_concurrent_schedule_runs_app_by_app(trace, expected):
    cp = compile_corpus_policy("MsgCntLmtHr")
    runs = [run(trace, cp, concurrent_same_t=True) for _ in range(3)]
    assert [r.arrival_order for r in runs] == [expected] * 3
    assert len({(r.verdict_lines(), r.snapshot, r.channel_lines()) for r in runs}) == 1


def test_isolation_local_state_per_app():
    # a per-app counter kept in local state: interleaving two apps must
    # leave each app's local state as if it ran alone
    src = """
    Events { ApplicationSide { e() = { SmsManager *.sendTextMessage(...) } } }
    Conditions { ApplicationSide { always = { true } } }
    Actions { ApplicationSide { note = { local.sent := local.sent + 1; } } }
    Rules { e() | always -> note; }
    """
    cp = compile_src(src)
    mixed = sends_every(MS_PER_SECOND, 10, apps=["A", "B"])
    res = run(mixed, cp)
    solo_a = run([e for e in mixed if e.app == "A"], cp)
    solo_b = run([e for e in mixed if e.app == "B"], cp)
    assert res.local_states["A"] == solo_a.local_states["A"]
    assert res.local_states["B"] == solo_b.local_states["B"]


def test_fail_closed_run_level():
    cp = compile_corpus_policy("MsgCntLmt")
    trace = sends_every(MS_PER_SECOND, 5) + [wifi(10 * MS_PER_SECOND, True, app="Messenger")]
    res = run(trace, cp, channel_connected=False)
    sends = res.verdicts[:5]
    assert all(v.decision == "Blocked" and v.reason == "ChannelError" for v in sends)
    # the wifi event triggers no rule of this policy and proceeds
    assert res.verdicts[5].decision == "Allowed"


def test_local_only_policy_unaffected_by_disconnected_channel():
    cp = compile_corpus_policy("WiFiLmt")
    res = run([wifi(9 * MS_PER_HOUR, True), wifi(14 * MS_PER_HOUR, True)], cp, channel_connected=False)
    assert res.decisions() == ["Allowed", "Blocked"]
    assert res.channel_entries == []


# a rule that faults leaves no write behind

STEP_SRC = """
Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
Conditions { SIDE { always = { true } } }
Actions { SIDE { step = { NS.g := NS.g + 1; NS.q := 100 / (NS.g - 2); } } }
Rules { stepRule = sendB() | always -> step; }
"""


def test_faulting_global_rule_leaves_no_write():
    cp = compile_src(STEP_SRC.replace("SIDE", "GlobalSide").replace("NS", "global"))
    res = run(sends_every(1000, 3), cp)
    # the second and third sends set g to 2 and then divide by zero
    assert res.decisions() == ["Allowed"] * 3
    assert res.faults == [(1, "EvalFault:DivisionByZero"), (2, "EvalFault:DivisionByZero")]
    assert [res.global_state.vars.get(n, VType.INT) for n in ("g", "q")] == [1, -100]
    assert snapshot(replay_requests(cp, res.channel_entries, res.initial_global)) == res.snapshot


def test_faulting_local_rule_leaves_no_write():
    cp = compile_src(STEP_SRC.replace("SIDE", "ApplicationSide").replace("NS", "local"))
    res = run(sends_every(1000, 3), cp)
    assert res.decisions() == ["Allowed", "Blocked", "Blocked"]
    assert [v.reason for v in res.verdicts[1:]] == ["EvalError:DivisionByZero"] * 2
    local = res.local_states["Messenger"]
    assert [local.get(n, VType.INT) for n in ("g", "q")] == [1, -100]


def test_faulting_rule_drops_its_attribute_write_and_block():
    src = """
    Events { ApplicationSide { sendB() = { SmsManager *.sendTextMessage(...) } } }
    Conditions { ApplicationSide { always = { true } } }
    Actions { ApplicationSide {
        wifiOn = { set_attr("wifi_enabled", true); }
        deny = { block(); }
        crash = { local.z := 10 / local.z; }
    } }
    Rules { denySend = sendB() | always -> wifiOn, deny, crash; }
    """
    res = run([send(0)], compile_src(src))
    assert (res.verdicts[0].decision, res.verdicts[0].reason) == ("Blocked", "EvalError:DivisionByZero")
    assert res.faults == [(0, "EvalError:DivisionByZero")]
    assert res.device.attrs.get("wifi_enabled", VType.BOOL) is False
    assert "z" not in res.local_states["Messenger"]


# a channel outage in the middle of a trace

def strictly_increasing(trace):
    out, last = [], -1
    for ev in trace:
        last = max(ev.t, last + 1)
        out.append(dataclasses.replace(ev, t=last))
    return out


def needs_global_rules(cp, ev, phase):
    # run() checks every event's arity against the catalog, which every
    # trigger matches, so each rule of the key fires
    return [r for r in plan_rules(rules_for(cp, ev.namespace, ev.method, phase)) if r.locality is Locality.NEEDS_GLOBAL]


@pytest.mark.parametrize(
    "pid, trace",
    [
        ("MsgCntLmtHr", sends_every(10 * MS_PER_SECOND, 300)),
        ("OneHrPerSittingOnly", strictly_increasing(make_trace(9, profile="long_sitting", max_events=400))),
    ],
)
def test_channel_outage_mid_trace_fails_closed(monkeypatch, pid, trace):
    cp = compile_corpus_policy(pid)
    lo, hi = trace[len(trace) // 5].t, trace[len(trace) // 2].t
    uninterrupted = run(trace, cp)

    request = Channel.request

    def flaky_request(self, app_id, rule_ids, t, appside_truth, forwarded_bindings):
        if lo <= t < hi:
            raise ChannelError("outage")
        return request(self, app_id, rule_ids, t, appside_truth, forwarded_bindings)

    monkeypatch.setattr(Channel, "request", flaky_request)
    res = run(trace, cp)

    assert not any(lo <= e.t < hi for e in res.channel_entries)
    faults = {}
    for idx, fault in res.faults:
        faults.setdefault(idx, []).append(fault)
    inside = [idx for idx, ev in enumerate(trace) if lo <= ev.t < hi]
    assert len(inside) > 50
    for idx in inside:
        before = needs_global_rules(cp, trace[idx], Phase.BEFORE)
        if before:
            verdict = res.verdicts[idx]
            assert (verdict.decision, verdict.reason) == ("Blocked", "ChannelError"), idx
        triggered = before or needs_global_rules(cp, trace[idx], Phase.AFTER)
        assert faults.get(idx, []) == ["ChannelError"] * len(triggered), idx
    first = inside[0]
    assert res.verdict_lines().splitlines()[:first] == uninterrupted.verdict_lines().splitlines()[:first]
    assert check_asymmetry(res.channel_entries) == []
    rebuilt = replay_requests(cp, res.channel_entries, res.initial_global)
    assert snapshot(GlobalState(vars=rebuilt.vars, attrs=res.global_state.attrs)) == res.snapshot


# only the phases a rule listens to are intercepted

BENCH_TRACE = make_bench_trace(per_kind=120)


def assert_intercepts_only_phases_with_rules(monkeypatch, cp, trace):
    # each non-empty plan is a tuple of its own, so its identity names its phase
    phase_of = {id(plan): phase for (_, _, phase), plan in phase_plans(cp).items() if plan}
    phases = []
    original = LocalMonitor.intercept

    def counting_intercept(self, plan, *args):
        phases.append(phase_of[id(plan)])
        return original(self, plan, *args)

    monkeypatch.setattr(LocalMonitor, "intercept", counting_intercept)
    res = run(trace, cp)
    before = sum(1 for ev in trace if rules_for(cp, ev.namespace, ev.method, Phase.BEFORE))
    after = sum(
        1 for ev, v in zip(trace, res.verdicts)
        if v.decision == ALLOWED and rules_for(cp, ev.namespace, ev.method, Phase.AFTER)
    )
    assert len(phases) == before + after
    assert phases.count(Phase.BEFORE) == before


@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_intercepts_only_phases_with_rules(monkeypatch, pid):
    assert_intercepts_only_phases_with_rules(monkeypatch, compile_corpus_policy(pid), BENCH_TRACE)


def test_event_without_rules_is_not_intercepted(monkeypatch):
    cp = compile_src(
        """
        Events { ApplicationSide {
            sendB() = { SmsManager *.sendTextMessage(...) }
            wifiB() = { WifiManager *.setWifiEnabled(boolean on) }
        } }
        Conditions { ApplicationSide { always = { true } } }
        Actions { ApplicationSide { note = { local.n := local.n + 1; } } }
        Rules { sendB() | always -> note; }
        """
    )
    assert not rules_for(cp, "WifiManager", "setWifiEnabled", Phase.BEFORE)
    trace = [send(0), wifi(1, False), send(2), wifi(3, True)]
    assert_intercepts_only_phases_with_rules(monkeypatch, cp, trace)


def intercept_every_phase(trace, cp, concurrent_same_t=False) -> RunResult:
    """run() as it was before it skipped phases without rules: both phases
    of every call are intercepted. The reference for run()."""
    device = DeviceState()
    gs = GlobalState(vars=VarStore(cp.global_kinds), attrs=device.attrs)
    initial = gs.copy()
    log = []
    channel = Channel(CentralMonitor(cp, gs, log))
    monitors = {app: LocalMonitor(app, app, cp, channel, device.attrs) for app in sorted({ev.app for ev in trace})}
    verdicts = [None] * len(trace)
    faults = []
    order = list(_execution_order(trace, concurrent_same_t))
    for idx in order:
        ev = trace[idx]
        monitor = monitors[ev.app]
        before = intercept(monitor, Occurrence(ev.namespace, ev.method, Phase.BEFORE, ev.args, None, ev.t))
        event_faults = list(before.faults)
        if before.blocked:
            decision, reason = BLOCKED, before.reason or NO_RULE
        else:
            ret = execute_effect(CATALOG[(ev.namespace, ev.method)], ev.args, device)
            after = intercept(monitor, Occurrence(ev.namespace, ev.method, Phase.AFTER, ev.args, ret, ev.t))
            event_faults.extend(after.faults)
            decision, reason = ALLOWED, NO_RULE
        verdicts[idx] = VerdictEntry(ev.t, ev.app, ev.call, decision, reason, 0)
        faults.extend((idx, f) for f in event_faults)
    local_states = {app: m.local for app, m in monitors.items()}
    return RunResult(verdicts, snapshot(gs), log, gs, initial, device, local_states, order, sorted(faults))


def assert_same_as_every_phase(trace, cp, concurrent_same_t=False):
    got = run(trace, cp, concurrent_same_t=concurrent_same_t)
    want = intercept_every_phase(trace, cp, concurrent_same_t)
    assert got.verdict_lines() == want.verdict_lines()
    assert got.snapshot == want.snapshot
    assert got.channel_lines() == want.channel_lines()
    assert got.faults == want.faults
    assert got.local_states == want.local_states
    assert got.arrival_order == want.arrival_order


@pytest.mark.parametrize("pid", CORPUS_IDS)
@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_corpus_matches_intercepting_every_phase(pid, concurrent_same_t):
    cp = compile_corpus_policy(pid)
    for seed in range(60_000, 60_010):
        assert_same_as_every_phase(make_trace(seed, max_events=400), cp, concurrent_same_t)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rule_lists(), st.integers(0, 10_000), st.booleans())
def test_random_policy_matches_intercepting_every_phase(rule_list, seed, concurrent_same_t):
    cp = validate_policy(parse_policy(policy_source(rule_list)))
    assume(isinstance(cp, CompiledPolicy))
    assert_same_as_every_phase(make_trace(seed, max_apps=2, max_events=80), cp, concurrent_same_t)


def outputs(res: RunResult) -> tuple:
    """The four files `dcmon run` writes."""
    return res.verdict_lines(), res.snapshot, res.channel_lines(), res.fault_lines()


@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_replay_looks_up_no_plan(monkeypatch, concurrent_same_t):
    """run() maps each API to its plans once and hands each phase's plan to
    the local monitor, which looks up none: the replay calls `rules_for`
    nowhere."""
    policies = {pid: compile_corpus_policy(pid) for pid in CORPUS_IDS}
    want = {pid: outputs(run(BENCH_TRACE, cp, concurrent_same_t=concurrent_same_t)) for pid, cp in policies.items()}

    def no_lookup(*args):
        raise AssertionError("rules_for called during a replay")

    monkeypatch.setattr(engine, "rules_for", no_lookup)
    monkeypatch.setattr(local_monitor, "rules_for", no_lookup)
    for pid, cp in policies.items():
        assert outputs(run(BENCH_TRACE, cp, concurrent_same_t=concurrent_same_t)) == want[pid], pid


@pytest.mark.parametrize("concurrent_same_t", [False, True], ids=["sequential", "concurrent"])
def test_replay_executes_only_effects_with_state(monkeypatch, concurrent_same_t):
    """An allowed call of an entry that touches no state returns the
    entry's constant: the replay calls `execute_effect`, through the name
    `dcmon.sim` binds, once per allowed setWifiEnabled, dialCall and
    endCall and for nothing else."""
    policies = {pid: compile_corpus_policy(pid) for pid in CORPUS_IDS}
    want = {pid: outputs(run(BENCH_TRACE, cp, concurrent_same_t=concurrent_same_t)) for pid, cp in policies.items()}
    called = Counter()

    def counting(entry, args, device):
        called[entry.method] += 1
        return execute_effect(entry, args, device)

    monkeypatch.setattr(sim, "execute_effect", counting)
    for pid, cp in policies.items():
        called.clear()
        res = run(BENCH_TRACE, cp, concurrent_same_t=concurrent_same_t)
        assert outputs(res) == want[pid], pid
        allowed = Counter(BENCH_TRACE[i].method for i, v in enumerate(res.verdicts) if v.decision == ALLOWED)
        assert called == Counter({m: n for m, n in allowed.items() if m not in STATELESS}), pid
        assert set(called) == {"setWifiEnabled", "dialCall", "endCall"}, pid


# sittings

def test_one_hour_sitting_policy_blocks_then_releases():
    cp = compile_corpus_policy("OneHrPerSittingOnly")
    trace = sends_every(MS_PER_MINUTE, 121)  # continuous use for 2h
    res = run(trace, cp)
    decisions = res.decisions()
    assert decisions[:60] == ["Allowed"] * 60
    assert decisions[60:] == ["Blocked"] * 61  # from minute 60 onward
    # after 15 idle minutes the lock lifts
    resumed = trace + [send(120 * MS_PER_MINUTE + 15 * MS_PER_MINUTE)]
    res2 = run(resumed, cp)
    assert res2.decisions()[-1] == "Allowed"
