"""scripts/gen_trace.py refuses a count it cannot honour with one usage error."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gen_trace.py"


def gen_trace(tmp_path, *argv):
    return subprocess.run([sys.executable, str(SCRIPT), "--out", str(tmp_path / "t.jsonl"), *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-apps", "0"], "max_apps must be between 1 and 5, got 0"),
        (["--max-apps", "9"], "max_apps must be between 1 and 5, got 9"),
        (["--max-events", "-1"], "max_events and max_days must be nonnegative, got -1 and 7"),
        (["--max-days", "0"], "max_days must be positive, got 0: a horizon of 0 days holds no time"),
        (["--bench", "--per-kind", "-3"], "per_kind must be nonnegative, got -3"),
    ],
    ids=["no-apps", "more-apps-than-the-pool", "negative-events", "zero-days", "negative-per-kind"],
)
def test_out_of_range_count_is_a_usage_error(tmp_path, argv, message):
    proc = gen_trace(tmp_path, *argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == f"gen_trace.py: error: {message}"
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "t.jsonl").exists()


def test_counts_in_range_write_a_trace(tmp_path):
    proc = gen_trace(tmp_path, "--max-apps", "5", "--max-events", "3")
    assert proc.returncode == 0, proc.stderr
    assert 0 < len((tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()) <= 3
