"""make_trace: default traces stay fixed, and every drawn event count fits the horizon."""

import hashlib

import pytest

from dcmon.lang.values import MS_PER_DAY
from dcmon.tracegen import make_trace

SEEDS = range(20)


def trace_digest(traces) -> str:
    return hashlib.sha256("".join(ev.to_json() + "\n" for trace in traces for ev in trace).encode()).hexdigest()


def test_default_traces_are_pinned():
    assert trace_digest(make_trace(seed) for seed in SEEDS) == (
        "3f6dd455aca6e9e6795956ce32f7586025620f08c41bca48d2f123e27f12385a"
    )


@pytest.mark.parametrize("max_days", [1, 2])
def test_a_short_horizon_keeps_every_drawn_trace_nonempty(max_days):
    # the event count is drawn before any timestamp and whatever the
    # horizon, and a default trace starts inside its horizon, so a
    # nonempty default trace means a positive count
    horizon = max_days * MS_PER_DAY - 1
    drawn = [seed for seed in SEEDS if make_trace(seed)]
    assert drawn
    for seed in drawn:
        trace = make_trace(seed, max_days=max_days)
        assert trace, seed
        assert all(0 <= ev.t <= horizon for ev in trace), seed


def test_a_zero_day_horizon_is_refused():
    with pytest.raises(ValueError, match="max_days must be positive, got 0"):
        make_trace(0, max_days=0)
