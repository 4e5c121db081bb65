#!/usr/bin/env python3
"""Record the reference digests the correctness gate checks.

    python3 perfbench/record_digests.py

Replays every job of every workload on the reference traces (seed
``REFERENCE_SEED``, sequential, latencies off) and writes the sha256 of the
verdict log and of the snapshot to ``digests.json``. Run it only on code
whose outputs are known good: the digests are the contract that later
changes must keep.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gate  # noqa: E402
from perfbench.measure import CONFIG, DIGESTS, WORK_DIR, reference_results  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from dcmon.corpus import compile_corpus_policy  # noqa: E402


def main() -> int:
    doc = {}
    work = WORK_DIR / "record"
    for name, workload in WORKLOADS.items():
        compiled = {pid: compile_corpus_policy(pid, CONFIG) for pid, _ in workload.jobs}
        doc[name] = {
            f"{pid}/{trace_name}": {
                "verdicts_sha256": gate.verdict_digest(result),
                "snapshot_sha256": gate.sha256(result.snapshot),
            }
            for pid, trace_name, result in reference_results(workload, compiled, work)
        }
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
