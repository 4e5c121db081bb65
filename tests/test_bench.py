"""`run_bench`: the objects that exist when it starts stay out of the
garbage collector's view during its timed legs."""

import gc

import pytest

from dcmon import bench
from dcmon.bench import BenchError, run_bench
from dcmon.tracegen import make_bench_trace

from conftest import wifi


@pytest.fixture()
def freeze_counts(monkeypatch):
    """The freeze count seen by every replay of either leg."""
    counts = []

    def counting(replay):
        def counted(*args, **kwargs):
            counts.append(gc.get_freeze_count())
            return replay(*args, **kwargs)

        return counted

    monkeypatch.setattr(bench, "run", counting(bench.run))
    monkeypatch.setattr(bench, "run_unmonitored", counting(bench.run_unmonitored))
    return counts


def test_legs_run_frozen_and_the_count_is_restored(freeze_counts):
    before = gc.get_freeze_count()
    run_bench(["WiFiLmt"], make_bench_trace(per_kind=2), repetitions=30)
    assert len(freeze_counts) == 60
    assert min(freeze_counts) > 0
    assert gc.get_freeze_count() == before


def test_the_count_is_restored_after_a_bench_error(freeze_counts):
    before = gc.get_freeze_count()
    # WiFiLmt's legs run; MsgCntLmt's raise, as the trace sends nothing
    with pytest.raises(BenchError, match="never exercises"):
        run_bench(["WiFiLmt", "MsgCntLmt"], [wifi(i * 1000, True) for i in range(5)], repetitions=30)
    assert len(freeze_counts) == 60
    assert min(freeze_counts) > 0
    assert gc.get_freeze_count() == before


def test_a_caller_that_froze_objects_keeps_them_frozen(freeze_counts):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run_bench(["WiFiLmt"], make_bench_trace(per_kind=2), repetitions=30)
        assert set(freeze_counts) == {frozen}
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
