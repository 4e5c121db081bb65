"""The record builders of the replay against the records' class calls.

`run()` builds every verdict, request and reply through a builder from
`lang/channel.py`'s `record_builder`, never through the class call, which
stays the public constructor. A builder takes the class's fields in order
and returns a record equal to the class call's, with the same JSON line.
"""

import dataclasses
import inspect

import pytest

from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.lang.channel import MonitorReply, MonitorRequest, build_reply, build_request, record_builder
from dcmon.lang.values import MS_PER_SECOND
from dcmon.sim import VerdictEntry, build_verdict, run
from dcmon.tracegen import make_bench_trace

from conftest import compile_src, sends_every
from test_batch_plan import FAULT_IN_A_BATCH

BUILDERS = {
    "verdict": (VerdictEntry, build_verdict, (7, "Maps", "WifiManager.setWifiEnabled", "Blocked", "blockWifi", 12)),
    "request": (MonitorRequest, build_request, (3, "Messenger", (0, 2), 60_000, {0: True, 4: False}, {"dest": "+356"})),
    "reply": (
        MonitorReply,
        build_reply,
        (3, "Messenger", (0, 2), 60_000, (True, False), (("deny",), ()), (None, "EvalFault:DivisionByZero")),
    ),
}

TRACE = make_bench_trace(per_kind=20)


@pytest.mark.parametrize("kind", BUILDERS)
def test_a_builder_takes_its_class_fields_in_order(kind):
    cls, build, _ = BUILDERS[kind]
    assert list(inspect.signature(build).parameters) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("kind", BUILDERS)
def test_a_builder_returns_what_the_class_call_returns(kind):
    cls, build, values = BUILDERS[kind]
    built, called = build(*values), cls(*values)
    assert type(built) is cls
    assert built == called
    assert built.to_json() == called.to_json()


def test_record_builder_refuses_what_the_class_call_would_do_otherwise():
    @dataclasses.dataclass(slots=True)
    class Defaulted:
        t: int
        latency_ns: int = 0

    @dataclasses.dataclass(slots=True)
    class Checked:
        t: int

        def __post_init__(self) -> None:
            if self.t < 0:
                raise ValueError(self.t)

    @dataclasses.dataclass(slots=True)
    class Derived:
        t: int
        tag: str = dataclasses.field(init=False, default="x")

    @dataclasses.dataclass
    class Unslotted:
        t: int

    @dataclasses.dataclass(slots=True)
    class Shadowing:
        cls: str  # a name of the builder's own code

    for cls in (Defaulted, Checked, Derived, Unslotted, Shadowing):
        with pytest.raises(TypeError):
            record_builder(cls)


def count_inits(mp, counts):
    """Wrap each record class's `__init__` to count its calls in `counts`."""
    for cls in (VerdictEntry, MonitorRequest, MonitorReply):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)

        mp.setattr(cls, "__init__", counting)


def assert_run_calls_no_class(trace, cp, **kwargs):
    counts = dict.fromkeys(("VerdictEntry", "MonitorRequest", "MonitorReply"), 0)
    with pytest.MonkeyPatch.context() as mp:
        count_inits(mp, counts)
        res = run(trace, cp, **kwargs)
        # the wrappers count a class call
        VerdictEntry(0, "Maps", "c", "Allowed", "no rule", 0)
    assert counts == {"VerdictEntry": 1, "MonitorRequest": 0, "MonitorReply": 0}
    assert len(res.verdicts) == len(trace)
    return res


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"concurrent_same_t": True}, {"channel_connected": False}, {"measure_latency": True}],
    ids=["sequential", "concurrent", "down", "latency"],
)
@pytest.mark.parametrize("pid", CORPUS_IDS)
def test_a_corpus_run_builds_its_records_without_a_class_call(pid, kwargs):
    assert_run_calls_no_class(TRACE, compile_corpus_policy(pid), **kwargs)


@pytest.mark.parametrize("case", FAULT_IN_A_BATCH.values(), ids=FAULT_IN_A_BATCH)
def test_a_faulting_run_builds_its_records_without_a_class_call(case):
    # faults on either side, and partial requests, which `_run_rules` answers
    trace = sends_every(MS_PER_SECOND, len(case["verdicts"]))
    res = assert_run_calls_no_class(trace, compile_src(case["src"]))
    assert res.faults and res.channel_entries
