"""The demos run to completion against the current package, with every
numpy RuntimeWarning an error, as it is under pytest."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", [
    "01_weights_and_constraint.py",
    "02_single_run_modes.py",
    "03_monte_carlo_benchmarks.py",
    "04_constraint_repair.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          os.path.join(ROOT, "demos", demo)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
