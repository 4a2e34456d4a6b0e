"""A failing hypothesis property is reported with its falsifying example.

pyproject.toml turns every warning into an error.  Where mypy_extensions
is installed, hypothesis warns of its deprecated TypedDict while it
builds a failure report; unless pyproject.toml ignores that warning, the
run ends in INTERNALERROR and the example is lost.
"""

import subprocess
import sys

import conftest

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    config = conftest.SRC.parent / "pyproject.toml"
    pytest = [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider"]
    result = subprocess.run(
        pytest + ["test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1
    assert "Falsifying example" in output
