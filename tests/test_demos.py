"""The demos run to completion against the current package, with every
numpy RuntimeWarning an error, as it is under pytest."""

import os

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize("demo", [
    "01_weights_and_constraint.py",
    "02_single_run_modes.py",
    "03_monte_carlo_benchmarks.py",
    "04_constraint_repair.py",
])
def test_demo_runs(demo):
    res = run_python(os.path.join(ROOT, "demos", demo))
    assert res.returncode == 0, res.stderr
