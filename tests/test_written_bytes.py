"""The bytes `stabilize` and `convert` write are pinned.

`dumps_document` must write exactly what `json.dumps(..., indent=2)`
writes of the generic `oracles.document_to_obj` (plus a newline),
checked on generated documents, and the
files the commands write on the nine fixtures must match the golden files
under `tests/data/golden/`; what they print is pinned once, in
`cli.json` (`test_cli_golden.py`).  The documents under `tests/data/`
pin the paths no fixture reaches.  The two knotless ones pin `convert`
of an open book without a knot, and that `tb` and `homology` of both
modes without one write nothing.
`long-word` (60 twists) pins how `stabilize` and `convert` write a long
word and its l x l pairing block.  `stabilize-not-orthogonal` pins both
stabilizations of a knot that meets the kernel of C.  After an
intended format change, rewrite those files with
`PYTHONPATH=src python tests/test_written_bytes.py`.
"""

import os
import pathlib
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest
import helpers
from oracles import dumps_document_reference
from tbcalc import (
    DehnTwist,
    HeegaardData,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    dumps_document,
    parse_document,
    write_document,
)
from tbcalc.documents import InputDocument

GOLDEN = conftest.DATA / "golden"
WRITTEN = "out.json"
COMMANDS = {
    "stabilize+1": ("stabilize", "--sign", "+1", "-o", WRITTEN),
    "stabilize-1": ("stabilize", "--sign", "-1", "-o", WRITTEN),
    "convert": ("convert", "-o", WRITTEN),
    "tb": ("tb",),
    "homology": ("homology",),
    "homology --json": ("homology", "--json"),
}
DATA_DOCUMENTS = {
    "knotless-openbook": ("convert", "homology", "homology --json", "tb"),
    "knotless-heegaard": ("homology", "homology --json", "tb"),
    "long-word": ("convert", "stabilize+1", "stabilize-1"),
    "stabilize-not-orthogonal": ("convert", "stabilize+1", "stabilize-1"),
}
CASES = [
    (fixture, command)
    for fixture in conftest.FIXTURE_NAMES
    for command in ("convert", "stabilize+1", "stabilize-1")
] + [(name, command) for name, commands in DATA_DOCUMENTS.items() for command in commands]


class Loud(int):
    """An int whose repr and str are not int's; json writes int.__repr__."""

    def __repr__(self):
        return "Loud()"

    __str__ = __repr__


def plain_integers():
    small = st.integers(-3, 3)
    return st.one_of(small, small, st.integers(-(2**80), 2**80))


def integers():
    plain = plain_integers()
    return st.one_of(plain, plain, plain, plain.map(Loud))


def vectors(size, entries=None):
    entries = integers() if entries is None else entries
    return st.lists(entries, min_size=size, max_size=size)


def mostly_zero(entries):
    """Zero four times in five, else an entry: mostly-zero blocks with
    all-zero rows and lone entries, as stabilized pairing blocks are."""
    return st.one_of(st.just(0), st.just(0), st.just(0), st.just(0), entries)


def block_entries(draw):
    """Plain ints for a whole matrix or twist list, or ints with some Loud
    among them, either dense or mostly zero."""
    entries = draw(st.sampled_from((plain_integers(), integers())))
    return draw(st.sampled_from((entries, mostly_zero(entries))))


texts = st.one_of(
    st.none(),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\x07\x1f\x7f\t\n", "é ☃ 😀  ", "</script>"]),
    st.sampled_from(["100%", "%d", "%%", "%s%d", "50%% %(mode)s"]),
)


@st.composite
def open_books(draw):
    """Open books of 0 to 6 cut arcs (0 gives empty arcs) and 0 to 12
    twists (1 gives a 1x1 pairing block)."""
    genus = draw(st.integers(0, 2))
    boundary = draw(st.integers(1, 3))
    n = 2 * genus + boundary - 1
    count = draw(st.integers(0, 12))
    arcs = vectors(n, block_entries(draw))
    twists = [DehnTwist(draw(st.sampled_from((1, -1))), draw(arcs)) for _ in range(count)]
    entries = block_entries(draw)
    pairings = [[0] * count for _ in range(count)]
    for k in range(count):
        for m in range(k):
            pairings[k][m] = draw(entries)
            pairings[m][k] = -pairings[k][m]
    book = OpenBookPresentation(
        PageSurface(genus, boundary), twists, IntegerMatrix.from_rows(pairings)
    )
    knot = draw(st.one_of(st.none(), vectors(n).map(PageKnot)))
    return InputDocument(
        open_book=book,
        knot=knot,
        name=draw(texts),
        description=draw(texts),
    )


@st.composite
def heegaard_documents(draw):
    genus = draw(st.integers(0, 4))
    relations = IntegerMatrix(
        genus, genus, tuple(draw(vectors(genus * genus, block_entries(draw))))
    )
    has_knot = draw(st.booleans())
    if has_knot:
        knot = (draw(vectors(genus)), draw(vectors(genus)), 2 * draw(st.integers(0, 3)))
    else:
        knot = (None, None, 0)
    return InputDocument(
        heegaard=HeegaardData(genus, relations, *knot),
        name=draw(texts),
        description=draw(texts),
    )


@given(st.one_of(open_books(), heegaard_documents()))
@settings(deadline=None, max_examples=400)
def test_dumps_document_writes_what_json_writes(document):
    text = dumps_document(document)
    assert text == dumps_document_reference(document)
    assert parse_document(text) == document


def skew(size, entries):
    """A size x size skew block holding the (row, col, value) entries below
    the diagonal, and their mirrors."""
    rows = [[0] * size for _ in range(size)]
    for row, col, value in entries:
        rows[row][col], rows[col][row] = value, -value
    return IntegerMatrix.from_rows(rows)


def annulus_twists(count):
    return [DehnTwist(1, (k % 2,)) for k in range(count)]


MOSTLY_ZERO = [
    # all-zero rows, and a lone entry in the first or in the last column
    IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    IntegerMatrix.from_rows([[5, 0, 0], [0, 0, 0], [-12, 0, 0]]),
    IntegerMatrix.from_rows([[0, 0, -7], [0, 0, 0], [0, 0, 31]]),
    IntegerMatrix.from_rows([[0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    # negative and multi-digit entries, and one past 2**64
    IntegerMatrix.from_rows([[0, -123456, 0], [0, 0, 0], [2**70, 0, -(2**65)]]),
    # int subclasses, and a zero that is one
    IntegerMatrix.from_rows([[0, Loud(-4), 0], [0, 0, 0], [Loud(0), 0, Loud(100)]]),
    IntegerMatrix.from_rows([[1]]),
    IntegerMatrix.from_rows([[0]]),
]


@pytest.mark.parametrize(
    "value",
    [InputDocument(heegaard=HeegaardData(m.rows, m, None, None)) for m in MOSTLY_ZERO]
    + [
        InputDocument(
            heegaard=HeegaardData(m.rows, m, (0,) * m.rows, (1,) + (0,) * (m.rows - 1), 2)
        )
        for m in MOSTLY_ZERO
    ]
    + [
        InputDocument(
            open_book=OpenBookPresentation(
                PageSurface(0, 2), annulus_twists(size), skew(size, entries)
            ),
            knot=PageKnot((1,)),
        )
        for size, entries in [
            (0, []),
            (1, []),
            (4, []),
            (4, [(1, 0, 3)]),
            (4, [(3, 0, -1), (3, 2, 1)]),
            (5, [(4, 1, -(10**12)), (2, 0, Loud(9))]),
            (7, [(6, 5, 1)]),
        ]
    ],
)
def test_mostly_zero_blocks_write_what_json_writes(value, tmp_path):
    """The writer splices only the nonzero entries of a matrix into a row
    of zeros: C and the pairing block, 0x0 to 7x7, at each edge of a
    row.  write_document streams the same bytes."""
    text = dumps_document(value)
    assert text == dumps_document_reference(value)
    assert parse_document(text) == value
    write_document(value, tmp_path / "doc.json")
    assert (tmp_path / "doc.json").read_text() == text


def disk_page_book(count=2):
    """count twists on a disk page: every arcs list is empty."""
    twists = [DehnTwist((-1) ** k, ()) for k in range(count)]
    return OpenBookPresentation(PageSurface(0, 1), twists, helpers.zeros(count, count))


def annulus_book(arcs, pairings):
    """One twist per entry of arcs on an annulus page (one cut arc)."""
    twists = [DehnTwist(1 if k % 2 else -1, (a,)) for k, a in enumerate(arcs)]
    return OpenBookPresentation(PageSurface(0, 2), twists, IntegerMatrix.from_rows(pairings))


def two_twist_book(arcs=((0, -2), (5, 1)), pairing=3):
    """Twists of sign 1 and -1 on a pair of pants (two cut arcs)."""
    twists = [DehnTwist(1, arcs[0]), DehnTwist(-1, arcs[1])]
    rows = [[0, pairing], [-pairing, 0]]
    return OpenBookPresentation(PageSurface(0, 3), twists, IntegerMatrix.from_rows(rows))


def heegaard(rows, a=None, i=None, dividing=0):
    return HeegaardData(len(rows), IntegerMatrix.from_rows(rows), a, i, dividing)


@pytest.mark.parametrize(
    "value",
    [
        InputDocument(heegaard=heegaard([[1, -2], [3, 4]])),
        InputDocument(heegaard=heegaard([[7]])),
        InputDocument(heegaard=heegaard([], (), ())),
        InputDocument(heegaard=heegaard([[1, Loud(2)], [3, 4]])),
        InputDocument(heegaard=heegaard([[2, 0], [0, 0]], (Loud(1), 0), (0, Loud(-3)), 4)),
        InputDocument(
            heegaard=HeegaardData(Loud(1), IntegerMatrix.from_rows([[1]]), (1,), (2,), Loud(2))
        ),
        InputDocument(open_book=two_twist_book()),
        InputDocument(open_book=disk_page_book()),
        InputDocument(open_book=disk_page_book(), knot=PageKnot(())),
        InputDocument(open_book=two_twist_book(((0, Loud(-2)), (5, 1)))),
        InputDocument(open_book=two_twist_book(pairing=Loud(-4))),
        InputDocument(open_book=two_twist_book(), knot=PageKnot((Loud(1), -1))),
        InputDocument(open_book=disk_page_book(0)),
        InputDocument(open_book=annulus_book([], [])),
        InputDocument(open_book=annulus_book([2], [[0]]), knot=PageKnot((1,))),
        InputDocument(
            open_book=OpenBookPresentation(
                PageSurface(Loud(1), Loud(1)),
                [DehnTwist(Loud(-1), (1, 0))],
                IntegerMatrix.from_rows([[0]]),
            )
        ),
        InputDocument(open_book=two_twist_book(), name="100%", description="50% of %s"),
        InputDocument(open_book=disk_page_book(1), name="%d", description="%d%d%%"),
        InputDocument(heegaard=heegaard([[1]], (1,), (1,)), name="%%", description="%"),
        InputDocument(heegaard=heegaard([[0]]), name="%(mode)s %i %", description="%%d 100%%"),
        InputDocument(open_book=annulus_book([1, -1], [[0, 1], [-1, 0]]), name="", description=""),
    ],
)
def test_blocks_and_their_fallbacks_write_what_json_writes(value):
    """Every block the writer templates (C, the pairing block, the twists,
    the knot, A and I) at its edge cases: 0x0 and 1x1 blocks, empty arcs
    on a disk page, int subclasses (json writes int.__repr__, the writer
    %d) in every array and count, and names and descriptions holding the
    %-sequences the templates are made of."""
    text = dumps_document(value)
    assert text == dumps_document_reference(value)
    assert parse_document(text) == value


def test_int_subclass_prints_as_int():
    data = HeegaardData(1, IntegerMatrix(1, 1, (Loud(7),)), (Loud(-2),), (0,))
    text = dumps_document(InputDocument(heegaard=data))
    assert '"C": [\n    [\n      7\n    ]\n  ],\n  "A": [\n    -2\n  ]' in text


def run_command(name, command):
    """Run one command on a fixture or a document under tests/data, in
    the current directory, and return the bytes it wrote (None when it
    wrote nothing)."""
    conftest.run_cli(*COMMANDS[command], conftest.document_path(name))
    written = pathlib.Path(WRITTEN)
    return written.read_bytes() if written.exists() else None


def golden_path(fixture, command):
    return GOLDEN / f"{fixture}.{command}.json"


@pytest.mark.parametrize("fixture, command", CASES)
def test_matches_golden_files(fixture, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = run_command(fixture, command)
    expected = golden_path(fixture, command)
    assert data == (expected.read_bytes() if expected.exists() else None)


def write_golden_files():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    # every file a case writes is written again, so one that no case
    # writes any more is deleted
    for written in GOLDEN.glob("*.*.json"):
        written.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for fixture, command in CASES:
            data = run_command(fixture, command)
            if data is not None:
                golden_path(fixture, command).write_bytes(data)
                os.remove(WRITTEN)


if __name__ == "__main__":
    write_golden_files()
