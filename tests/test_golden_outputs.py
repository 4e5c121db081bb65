"""Byte-for-byte outputs pinned by digest.

`perfbench/digests.json` pins verdicts and snapshots; this also pins the
channel log and the fault lines. The digests in `golden_outputs.json` are
the sha256 of `verdict_lines()`, `snapshot`, `channel_lines()` and
`fault_lines()` for the ten corpus policies on
`make_bench_trace(per_kind=120)`, in sequential and concurrent mode, and
for two faulting batches of `test_batch_plan.py`: one whose replies hold
faults, and one whose partial requests carry a forwarded map. A change
that means to alter an output rewrites the file with

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dcmon.corpus import CORPUS_IDS, compile_corpus_policy
from dcmon.lang.values import MS_PER_SECOND
from dcmon.sim import run
from dcmon.tracegen import make_bench_trace

from conftest import compile_src, sends_every
from test_batch_plan import CENTRAL_FAULT_SRC, FORWARDED_FAULT_SRC, FORWARDED_SENDS

GOLDEN = Path(__file__).with_name("golden_outputs.json")
OUTPUTS = ("verdicts", "snapshot", "channel", "faults")
CASES = [f"{pid}/{mode}" for pid in CORPUS_IDS for mode in ("sequential", "concurrent")]
CASES += ["central_fault_batch", "forwarded_fault_batch"]


def run_case(case):
    if case == "central_fault_batch":
        return run(sends_every(MS_PER_SECOND, 4), compile_src(CENTRAL_FAULT_SRC))
    if case == "forwarded_fault_batch":
        return run(FORWARDED_SENDS, compile_src(FORWARDED_FAULT_SRC))
    pid, mode = case.split("/")
    return run(make_bench_trace(per_kind=120), compile_corpus_policy(pid), concurrent_same_t=mode == "concurrent")


def digests(res):
    texts = (res.verdict_lines(), res.snapshot, res.channel_lines(), res.fault_lines())
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in zip(OUTPUTS, texts)}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digests(case):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert digests(run_case(case)) == want


if __name__ == "__main__":
    json.dump({case: digests(run_case(case)) for case in CASES}, sys.stdout, indent=1, sort_keys=True)
    print()
