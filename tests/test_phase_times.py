"""tools/phase_times.py's argument checks, run as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_runs_below_one_exit_2_with_one_error_line(runs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "phase_times.py"), "--runs", runs],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if not line.startswith(("usage:", " "))]
    assert errors == [f"phase_times.py: error: argument --runs: must be at least 1, got {runs}"]
