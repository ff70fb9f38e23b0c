"""The suite's own pytest configuration reports a failing property in full."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 20))
def test_fails(x):
    assert x < 10
"""


def test_failing_property_prints_its_counterexample(tmp_path):
    # with filterwarnings = ["error"] alone, a deprecation warning raised
    # while Hypothesis reports the failure turned the report into an
    # INTERNALERROR that printed no falsifying example
    (tmp_path / "test_throwaway.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT,
         "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in proc.stdout, output
    assert "INTERNALERROR" not in output
