"""Paths of the test documents, and the helpers the test modules share:
`run_cli` runs one command, `write_table` and `read_table` keep the
`{case: outputs}` golden tables, `record_calls` counts the calls of one
function, and `readme_section` reads one section of README.md."""

import contextlib
import io
import json
import pathlib
import sys

from tbcalc import cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.json"


def document_path(name: str) -> pathlib.Path:
    """A fixture, or else a test document under tests/data."""
    path = fixture_path(name)
    return path if path.exists() else DATA / f"{name}.json"


def run_cli(*argv, stdin=None):
    """(exit code, stdout, stderr) of `tbcalc *argv`, run through
    `cli.main` with stdin text on standard input when given.  A usage
    error's SystemExit gives its code, as the console script would.
    Output crosses the encoding step a terminal's stream takes: UTF-8,
    strict on stdout and backslashreplace on stderr, as CPython opens
    them."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([str(arg) for arg in argv])
            except SystemExit as exit:
                code = exit.code
    finally:
        sys.stdin = saved
    return code, _text(stdout), _text(stderr)


def _text(stream: io.TextIOWrapper) -> str:
    stream.flush()
    return stream.buffer.getvalue().decode("utf-8")


def write_table(path: pathlib.Path, table: dict) -> None:
    """Write a golden table, one `"case": outputs` line per case."""
    lines = [f"{json.dumps(name)}: {json.dumps(outputs)}" for name, outputs in table.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def read_table(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


def record_calls(monkeypatch, owner, name: str) -> list:
    """Replace the one-argument function `owner.name` with one that
    records each argument, then calls it; return the record."""
    calls = []
    original = getattr(owner, name)

    def recording(argument):
        calls.append(argument)
        return original(argument)

    monkeypatch.setattr(owner, name, recording)
    return calls


def readme_section(heading: str) -> str:
    """The text of README.md under `## heading`, its subsections
    included, up to the next `## ` heading."""
    _, found, rest = README.read_text(encoding="utf-8").partition(f"\n## {heading}\n")
    assert found, f"README.md has no section {heading!r}"
    return rest.split("\n## ", 1)[0]
