"""Smoke runs of the quick demos.

Each demo is copied into a temporary directory and run there to the end
in a child process, so a name the package no longer has fails here, and
the demos' rasters land beside the copy rather than in the checkout.
"""

import os
import shutil
import subprocess
import sys

import pytest

import firescout

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["fire_spread", "aircraft_paths", "sensor_views",
                                  "belief_tracking"])
def test_demo_runs_to_the_end(tmp_path, name):
    script = shutil.copy(os.path.join(DEMOS, f"{name}.py"), tmp_path)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(firescout.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
