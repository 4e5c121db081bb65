"""`scripts/regen_corpus.py` refuses a bad config as `dcmon bench` does:
one `error: bad config PATH: …` line, nothing written, exit 2."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "regen_corpus.py"


@pytest.mark.parametrize("text", ['{"idle_threshold_ms": 10000000000000000000000}', None], ids=["too_big", "missing"])
def test_bad_config_exit_2_and_writes_nothing(tmp_path, text):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    dest = tmp_path / "policies"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--config", str(config), "--dest", str(dest)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: bad config {config}: ")
    assert not dest.exists()
