"""The suite's own pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CASES = '''
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_property(x):
    assert x < 0


def test_deprecation():
    warnings.warn("an unrelated deprecation", DeprecationWarning)
'''


def test_warnings_are_errors_and_failing_property_tests_still_report(tmp_path):
    # a failing @given test reports its falsifying example instead of
    # crashing the run, and any other deprecation still fails its test
    (tmp_path / "test_cases.py").write_text(_CASES)
    proc = subprocess.run(
        [
            *(sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"),
            *("-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_cases.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_property(" in output
    assert "FAILED test_cases.py::test_property" in output
    assert "FAILED test_cases.py::test_deprecation" in output
    assert "DeprecationWarning: an unrelated deprecation" in output
    assert "2 failed" in output
