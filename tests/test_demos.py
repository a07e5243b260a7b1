"""Smoke test: every demo script runs to completion and reports no failure,
and so does the README's Python example.

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


def test_readme_python_example():
    # the block under "The same machinery is importable", run as it stands;
    # a few of the values its comments state
    text = (ROOT / "README.md").read_text()
    after = text.split("The same machinery is importable", 1)[1]
    block = after.split("```python\n", 1)[1].split("```", 1)[0]
    code = block + (
        "\nprint(a, full.lhs, full.modulus, short.lhs, len(num),"
        " congruence_failure(num, [(3, 1), (9, 4)], {3: 6, 9: 0}))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4 27833 (mod 28561) 13^4 25272 (mod 28561) 561 None\n"
