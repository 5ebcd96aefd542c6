"""pyproject.toml's warning filters, as the suite itself runs under them."""

import os
import subprocess
import sys

from conftest import ROOT, WARNINGS_AS_ERRORS

PROBE = '''\
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, database=None)
@given(st.integers(0, 10))
def test_failing_example(x):
    assert x < 5


def test_deprecation():
    warnings.warn("a deprecated call", DeprecationWarning)


def test_after_them():
    pass
'''


def test_a_failing_example_is_reported_and_a_deprecation_fails_its_test(tmp_path):
    # hypothesis reports a failing example through libcst, which warns that
    # mypy_extensions.TypedDict is deprecated: under error::DeprecationWarning
    # alone that ended the session with INTERNALERROR (exit 3) at the first
    # failing example, and no later test ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    res = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_failing_example - assert 5 < 5" in out
    assert "FAILED test_probe.py::test_deprecation - DeprecationWarning" in out
    assert "2 failed, 1 passed" in out
