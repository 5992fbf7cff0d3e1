"""The suite's pytest configuration: a failing property test is reported as a failure."""

import os
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_property_is_a_failure_not_an_internal_error(tmp_path):
    # On a failing example, hypothesis imports libcst to print a patch.  Where that
    # import warns and filterwarnings turns the warning into an error, the session
    # used to end in INTERNALERROR (exit 3) and the tests after it never ran.
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout[-2000:]
    assert "1 failed" in run.stdout
