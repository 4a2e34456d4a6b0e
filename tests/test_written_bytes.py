"""The bytes `stabilize` and `convert` write are pinned.

`dumps_document` must write exactly what `json.dumps(..., indent=2)`
writes (plus a newline), checked on generated documents, and the
commands' outputs on the nine fixtures must match the golden files under
`tests/data/golden/`.  After an intended format change, rewrite those
files with `PYTHONPATH=src python tests/test_written_bytes.py`.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest
from tbcalc import (
    DehnTwist,
    HeegaardData,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    dumps_document,
)
from tbcalc.cli import main
from tbcalc.documents import InputDocument, document_to_obj

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
OUTPUTS = GOLDEN / "outputs.json"
COMMANDS = {
    "stabilize+1": ("stabilize", "--sign", "+1"),
    "stabilize-1": ("stabilize", "--sign", "-1"),
    "convert": ("convert",),
}
WRITTEN = "out.json"


class Loud(int):
    """An int whose repr and str are not int's; json writes int.__repr__."""

    def __repr__(self):
        return "Loud()"

    __str__ = __repr__


def integers():
    small = st.integers(-3, 3)
    plain = st.one_of(small, small, st.integers(-(2**80), 2**80))
    return st.one_of(plain, plain, plain, plain.map(Loud))


def vectors(size):
    return st.lists(integers(), min_size=size, max_size=size)


texts = st.one_of(
    st.none(),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\x07\x1f\x7f\t\n", "é ☃ 😀  ", "</script>"]),
)


@st.composite
def open_books(draw):
    genus = draw(st.integers(0, 2))
    boundary = draw(st.integers(1, 3))
    n = 2 * genus + boundary - 1
    count = draw(st.integers(0, 6))
    twists = [DehnTwist(draw(st.sampled_from((1, -1))), draw(vectors(n))) for _ in range(count)]
    pairings = [[0] * count for _ in range(count)]
    for k in range(count):
        for m in range(k):
            pairings[k][m] = draw(integers())
            pairings[m][k] = -pairings[k][m]
    book = OpenBookPresentation(
        PageSurface(genus, boundary), twists, IntegerMatrix.from_rows(pairings)
    )
    knot = draw(st.one_of(st.none(), vectors(n).map(PageKnot)))
    return InputDocument(
        mode="openbook",
        open_book=book,
        knot=knot,
        has_knot=knot is not None,
        name=draw(texts),
        description=draw(texts),
    )


@st.composite
def heegaard_documents(draw):
    genus = draw(st.integers(0, 4))
    relations = IntegerMatrix(genus, genus, tuple(draw(vectors(genus * genus))))
    has_knot = draw(st.booleans())
    if has_knot:
        knot = (draw(vectors(genus)), draw(vectors(genus)), 2 * draw(st.integers(0, 3)))
    else:
        knot = ((0,) * genus, (0,) * genus, 0)
    return InputDocument(
        mode="heegaard",
        heegaard=HeegaardData(genus, relations, *knot),
        has_knot=has_knot,
        name=draw(texts),
        description=draw(texts),
    )


@given(st.one_of(open_books(), heegaard_documents()))
@settings(deadline=None, max_examples=400)
def test_dumps_document_writes_what_json_writes(document):
    assert dumps_document(document) == json.dumps(document_to_obj(document), indent=2) + "\n"


def test_int_subclass_prints_as_int():
    data = HeegaardData(1, IntegerMatrix(1, 1, (Loud(7),)), (Loud(-2),), (0,))
    text = dumps_document(InputDocument(mode="heegaard", heegaard=data, has_knot=True))
    assert '"C": [\n    [\n      7\n    ]\n  ],\n  "A": [\n    -2\n  ]' in text


def run_command(fixture, command):
    """Run one command on a fixture in the current directory.

    Returns its exit code, stdout and stderr, and the bytes it wrote
    (None when it wrote nothing).
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*COMMANDS[command], "-o", WRITTEN, str(conftest.fixture_path(fixture))]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = pathlib.Path(WRITTEN)
    data = written.read_bytes() if written.exists() else None
    outputs = {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    return outputs, data


def golden_path(fixture, command):
    return GOLDEN / f"{fixture}.{command}.json"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", conftest.FIXTURE_NAMES)
def test_matches_golden_files(fixture, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs, data = run_command(fixture, command)
    assert outputs == json.loads(OUTPUTS.read_text())[f"{fixture} {command}"]
    expected = golden_path(fixture, command)
    assert data == (expected.read_bytes() if expected.exists() else None)


def write_golden_files():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    outputs = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for fixture in conftest.FIXTURE_NAMES:
            for command in sorted(COMMANDS):
                outputs[f"{fixture} {command}"], data = run_command(fixture, command)
                target = golden_path(fixture, command)
                if data is None:
                    target.unlink(missing_ok=True)
                else:
                    target.write_bytes(data)
                    os.remove(WRITTEN)
    OUTPUTS.write_text(json.dumps(outputs, indent=2, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    write_golden_files()
