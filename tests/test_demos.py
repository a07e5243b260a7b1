"""Smoke test: every demo script runs to completion and reports no failure.

test_report_digests pins the stdout of the same runs.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@lru_cache(maxsize=None)
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One run of the demo per test session, shared by the tests that read it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
