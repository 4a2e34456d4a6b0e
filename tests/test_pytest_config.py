"""The test run's own configuration.

A failing hypothesis property is reported with its falsifying example.
pyproject.toml turns every warning into an error.  Where mypy_extensions
is installed, hypothesis warns of its deprecated TypedDict while it
builds a failure report; unless pyproject.toml ignores that warning, the
run ends in INTERNALERROR and the example is lost.

CI's "Golden files are current" step runs every module that rewrites a
golden file, and only those.
"""

import re
import subprocess
import sys

import conftest

WORKFLOW = conftest.SRC.parent / ".github" / "workflows" / "tests.yml"

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


def test_the_golden_step_runs_every_rewrite_entry_point():
    """A module with an `if __name__ == "__main__"` block rewrites its
    golden files; the step runs each such module once, then diffs."""
    _, found, step = WORKFLOW.read_text(encoding="utf-8").partition("- name: Golden files are current\n")
    assert found, "no step named Golden files are current"
    step = step.split("\n      - name: ", 1)[0]
    run = re.findall(r"^ +PYTHONPATH=src python tests/(test_\w+\.py)$", step, re.MULTILINE)
    rewriting = [
        path.name
        for path in sorted(conftest.SRC.parent.glob("tests/test_*.py"))
        if re.search(r'^if __name__ == "__main__":$', path.read_text(encoding="utf-8"), re.MULTILINE)
    ]
    assert len(rewriting) >= 5
    assert sorted(run) == rewriting
    assert step.rstrip().endswith("git diff --exit-code tests/data/golden")
