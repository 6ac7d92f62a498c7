"""The benchmark's self-tests, run as part of the main suite.

benchmark/tracer.py wraps firescout functions by name and
benchmark/checks.py scores plans with them, so a renamed or removed
function breaks the benchmark. Running its self-tests here makes that
fail this suite too, not just the next benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmark"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, f"{proc.stdout[-4000:]}\n{proc.stderr[-4000:]}"
