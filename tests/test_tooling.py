"""The benchmark's smoke run, which re-drives ncg through its public calls."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_exits_0():
    # guards what perfbench calls: profile_from_index, enumerate_cell and the
    # EnumerationResult fields, untraced and traced
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-4000:]
