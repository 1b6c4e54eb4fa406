"""Runs the benchmark's self-test on the simulator workloads, so a change to
the program that breaks the benchmark's oracle, model digest or per-layer
coverage check fails the test suite."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    p = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "count-steady", "count-fluid", "nexmark-q4"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    assert "selftest ok" in p.stdout
