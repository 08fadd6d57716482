"""scripts/run_verification.py runs every acceptance criterion, with the
standard library alone, as CI's `python -S` step runs it."""

import os
import subprocess
import sys
from pathlib import Path

import test_acceptance

ROOT = Path(__file__).resolve().parent.parent


def test_script_runs_every_acceptance_criterion():
    numbers = [name.split("_")[2] for name in vars(test_acceptance)
               if name.startswith("test_criterion_")]
    assert numbers
    done = subprocess.run(
        [sys.executable, "-S", "-W", "error", str(ROOT / "scripts" / "run_verification.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300, check=False)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    assert lines[-1].startswith("ALL PASS"), lines[-1]
    for n in numbers:
        assert sum(line.startswith(f"[criterion {n}] PASS") for line in lines) == 1, n
