"""Strict parsing, round trips, and every validation path."""

import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings

import conftest
import helpers
import oracles
from oracles import document_to_obj
from tbcalc import (
    DehnTwist,
    DocumentError,
    HeegaardData,
    InputDocument,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    ParseError,
    ValidationError,
    dumps_document,
    load_document,
    parse_document,
    write_document,
)
from tbcalc.documents import document_from_obj
from test_openbook import skew_blocks_with_faults


def openbook_obj(**overrides):
    obj = {
        "mode": "openbook",
        "page": {"genus": 0, "boundary": 2},
        "twists": [{"sign": 1, "arcs": [-1]}],
        "twist_pairings": [[0]],
        "knot": {"arcs": [-1]},
    }
    obj.update(overrides)
    return obj


def heegaard_obj(**overrides):
    obj = {
        "mode": "heegaard",
        "genus": 1,
        "C": [[-2]],
        "A": [-1],
        "I": [-1],
        "dividing": 0,
    }
    obj.update(overrides)
    return obj


class TestFixtureCorpus:
    @pytest.mark.parametrize("name", conftest.FIXTURE_NAMES)
    def test_parses(self, name):
        document = load_document(conftest.fixture_path(name))
        assert document.name == name
        assert document.description
        if document.mode == "openbook":
            assert document.open_book is not None
            assert document.heegaard is None
        else:
            assert document.heegaard is not None
            assert document.open_book is None

    @pytest.mark.parametrize("name", conftest.FIXTURE_NAMES)
    def test_round_trips(self, name):
        document = load_document(conftest.fixture_path(name))
        assert parse_document(dumps_document(document)) == document
        assert document_from_obj(document_to_obj(document)) == document

    @pytest.mark.parametrize("name", conftest.FIXTURE_NAMES)
    def test_write_and_reload(self, name, tmp_path):
        document = load_document(conftest.fixture_path(name))
        out = tmp_path / "doc.json"
        write_document(document, out)
        assert load_document(out) == document

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-string limit"
    )
    def test_an_unprintable_integer_is_a_document_error(self, tmp_path):
        """An entry longer than the int-to-string limit raises a
        DocumentError naming the path and the limit, and leaves the file
        written up to that entry."""
        document = InputDocument(heegaard=HeegaardData(1, IntegerMatrix.from_rows([[10**5000]])))
        out = tmp_path / "doc.json"
        limit = sys.get_int_max_str_digits()
        with pytest.raises(DocumentError, match=f"^{re.escape(str(out))}: an integer has more than {limit} digits"):
            write_document(document, out)
        assert out.read_text() == '{\n  "mode": "heegaard",\n  "genus": 1,\n  "C": [\n    [\n      '

    def test_load_from_stream(self):
        with open(conftest.fixture_path("standard-unknot"), encoding="utf-8") as handle:
            document = load_document(handle)
        assert document.mode == "openbook"


class TestParsing:
    def test_openbook_fields(self):
        document = document_from_obj(openbook_obj())
        assert document.mode == "openbook"
        assert document.knot is not None
        assert document.open_book.page.arc_count == 1
        assert document.knot.arc_pairings == (-1,)

    def test_openbook_without_knot(self):
        obj = openbook_obj()
        del obj["knot"]
        document = document_from_obj(obj)
        assert document.knot is None

    def test_heegaard_fields(self):
        document = document_from_obj(heegaard_obj())
        assert document.mode == "heegaard"
        assert document.heegaard.knot_relations is not None
        assert document.heegaard.knot_generators == (-1,)

    def test_heegaard_without_knot_block(self):
        document = document_from_obj({"mode": "heegaard", "genus": 2, "C": [[1, 0], [0, 1]]})
        assert document.heegaard.knot_relations is None
        assert document.heegaard.knot_generators is None

    def test_dividing_defaults_to_zero(self):
        obj = heegaard_obj()
        del obj["dividing"]
        assert document_from_obj(obj).heegaard.dividing_intersections == 0

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            parse_document('{"mode": "openbook",\n  "page": }')
        assert info.value.line == 2
        assert info.value.column is not None

    def test_non_object_top_level(self):
        with pytest.raises(ValidationError, match="top level"):
            parse_document("[1, 2, 3]")


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda o: o.update(mode="bogus"), "openbook' or 'heegaard"),
        (lambda o: o.update(extra=1), "unknown key"),
        (lambda o: o.pop("page"), "missing required key"),
        (lambda o: o.update(page=[]), "page: expected an object"),
        (lambda o: o.update(page={"genus": 0}), "missing required key"),
        (lambda o: o.update(page={"genus": -1, "boundary": 2}), "nonnegative"),
        (lambda o: o.update(page={"genus": 0, "boundary": 0}), "at least 1"),
        (lambda o: o.update(page={"genus": True, "boundary": 2}), "expected an integer"),
        (lambda o: o.update(page={"genus": 0.5, "boundary": 2}), "expected an integer"),
        (lambda o: o.update(twists={}), "expected an array"),
        (lambda o: o.update(twists=[[]]), "expected an object"),
        (lambda o: o.update(twists=[{"sign": 0, "arcs": [1]}]), "must be 1 or -1"),
        (lambda o: o.update(twists=[{"sign": 1, "arcs": [1, 2]}]), "expected 1 entries"),
        (lambda o: o.update(twists=[{"sign": 1}]), "missing required key"),
        (lambda o: o.update(twist_pairings=[[1]]), "skew-symmetry"),
        (lambda o: o.update(name=7), "expected a string"),
        (lambda o: o.update(knot={"arcs": ["x"]}), r"arcs\[0\]: expected an integer"),
        (lambda o: o.update(knot={"arms": [1]}), "unknown key"),
    ],
)
def test_openbook_validation_errors(mutate, fragment):
    obj = openbook_obj()
    mutate(obj)
    with pytest.raises(ValidationError, match=fragment):
        document_from_obj(obj)


def test_skew_symmetry_off_diagonal():
    obj = {
        "mode": "openbook",
        "page": {"genus": 0, "boundary": 2},
        "twists": [{"sign": 1, "arcs": [1]}, {"sign": 1, "arcs": [0]}],
        "twist_pairings": [[0, 1], [1, 0]],
    }
    with pytest.raises(ValidationError, match="skew-symmetry"):
        document_from_obj(obj)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda o: o.update(genus=-1), "nonnegative"),
        (lambda o: o.update(C=[[1, 2]]), "expected 1 entries"),
        (lambda o: o.update(C=[[1], [2]]), "expected 1 rows"),
        (lambda o: o.update(C="nope"), "expected an array of rows"),
        (lambda o: o.pop("A"), "required alongside"),
        (lambda o: o.pop("I"), "required alongside"),
        (lambda o: o.update(dividing=3), "must be even"),
        (lambda o: o.update(dividing=-2), "nonnegative"),
        (lambda o: o.update(A=[True]), "expected an integer"),
    ],
)
def test_heegaard_validation_errors(mutate, fragment):
    obj = heegaard_obj()
    mutate(obj)
    with pytest.raises(ValidationError, match=fragment):
        document_from_obj(obj)


class TestInputDocumentInvariant:
    """A document holds exactly one presentation, and a page knot only
    beside an open book, so writing it can never drop data."""

    def parts(self):
        book = document_from_obj(openbook_obj())
        return book.open_book, book.knot, document_from_obj(heegaard_obj()).heegaard

    def test_open_book_and_heegaard(self):
        open_book, knot, heegaard = self.parts()
        with pytest.raises(ValueError, match="exactly one of open_book and heegaard"):
            InputDocument(open_book=open_book, knot=knot, heegaard=heegaard)
        with pytest.raises(ValueError, match="exactly one of open_book and heegaard"):
            InputDocument(open_book=open_book, heegaard=heegaard)

    def test_knot_beside_heegaard(self):
        _, knot, heegaard = self.parts()
        with pytest.raises(ValueError, match="knot requires open_book"):
            InputDocument(heegaard=heegaard, knot=knot)

    @pytest.mark.parametrize("length", [0, 2, 3])
    def test_knot_pairs_with_every_arc(self, length):
        # the page of openbook_obj has one cut arc; the parser refuses
        # any other knot length, so the constructor does too
        open_book, _, _ = self.parts()
        with pytest.raises(ValueError, match="each of the page's cut arcs"):
            InputDocument(open_book=open_book, knot=PageKnot((1,) * length))

    @pytest.mark.parametrize("field", ["name", "description"])
    @pytest.mark.parametrize("value", [7, True, b"bytes", ["text"]])
    def test_name_and_description_are_strings(self, field, value):
        open_book, _, heegaard = self.parts()
        for presentation in ({"open_book": open_book}, {"heegaard": heegaard}):
            with pytest.raises(TypeError, match=f"{field} must be a string or None"):
                InputDocument(**presentation, **{field: value})

    def test_neither(self):
        with pytest.raises(ValueError, match="exactly one of open_book and heegaard"):
            InputDocument()
        with pytest.raises(ValueError, match="exactly one of open_book and heegaard"):
            InputDocument(name="empty", description="no presentation")

    def test_accepted_combinations_write_what_they_hold(self):
        open_book, knot, heegaard = self.parts()
        assert document_to_obj(InputDocument(open_book=open_book, knot=knot)) == openbook_obj()
        assert "knot" not in document_to_obj(InputDocument(open_book=open_book))
        assert document_to_obj(InputDocument(heegaard=heegaard)) == heegaard_obj()


def test_dividing_alone_counts_as_knot_block():
    # dividing is part of the knot block, so it cannot appear by itself
    with pytest.raises(ValidationError, match="required alongside"):
        document_from_obj({"mode": "heegaard", "genus": 1, "C": [[1]], "dividing": 2})


def test_dumps_ends_with_newline():
    document = document_from_obj(heegaard_obj())
    text = dumps_document(document)
    assert text.endswith("\n")
    assert json.loads(text)["mode"] == "heegaard"


OPENBOOK_TWO_TWISTS = {
    "mode": "openbook",
    "page": {"genus": 0, "boundary": 3},
    "twists": [{"sign": 1, "arcs": [1, 0]}, {"sign": -1, "arcs": [0, 2]}],
    "twist_pairings": [[0, 1], [-1, 0]],
    "knot": {"arcs": [1, 1]},
}

HEEGAARD_GENUS_TWO = {"mode": "heegaard", "genus": 2, "C": [[1, 0], [0, 2]], "A": [1, 0], "I": [0, 1]}


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "1", None])
@pytest.mark.parametrize(
    "base,keys,path",
    [
        (OPENBOOK_TWO_TWISTS, ("twists", 1, "arcs", 1), "twists[1].arcs[1]"),
        (OPENBOOK_TWO_TWISTS, ("knot", "arcs", 0), "knot.arcs[0]"),
        (OPENBOOK_TWO_TWISTS, ("twist_pairings", 1, 0), "twist_pairings[1][0]"),
        (OPENBOOK_TWO_TWISTS, ("twist_pairings", 0, 0), "twist_pairings[0][0]"),
        (HEEGAARD_GENUS_TWO, ("C", 1, 0), "C[1][0]"),
        (HEEGAARD_GENUS_TWO, ("C", 0, 1), "C[0][1]"),
        (HEEGAARD_GENUS_TWO, ("A", 1), "A[1]"),
        (HEEGAARD_GENUS_TWO, ("I", 0), "I[0]"),
    ],
)
def test_non_integer_entry_named_by_path(base, keys, path, bad):
    obj = json.loads(json.dumps(base))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = bad
    with pytest.raises(ValidationError) as info:
        document_from_obj(obj)
    assert info.value.path == path
    assert str(info.value) == f"{path}: expected an integer, got {bad!r}"


@pytest.mark.parametrize(
    "base,changes,message",
    [
        # a bad entry wins over any error in a later field, and back
        (HEEGAARD_GENUS_TWO, {"A": [0.5, 0], "I": "x"}, "A[0]: expected an integer, got 0.5"),
        (HEEGAARD_GENUS_TWO, {"A": [0, None], "I": [True, 0]}, "A[1]: expected an integer, got None"),
        (HEEGAARD_GENUS_TWO, {"A": [0.5, 0], "dividing": 3}, "A[0]: expected an integer, got 0.5"),
        (HEEGAARD_GENUS_TWO, {"I": [0, "1"], "dividing": -2}, "I[1]: expected an integer, got '1'"),
        (HEEGAARD_GENUS_TWO, {"A": {}, "I": [0.5, 0]}, "A: expected an array of integers"),
        (HEEGAARD_GENUS_TWO, {"I": [0], "dividing": 1}, "I: expected 2 entries, got 1"),
        (HEEGAARD_GENUS_TWO, {"dividing": True}, "dividing: expected an integer, got True"),
        (HEEGAARD_GENUS_TWO, {"dividing": 1}, "dividing: must be even"),
        ({**HEEGAARD_GENUS_TWO, "genus": 0, "C": []}, {"A": "", "I": ""}, "A: expected an array"),
        (
            OPENBOOK_TWO_TWISTS,
            {"twists": [{"sign": 1, "arcs": [0.5, 0]}, {"sign": 3, "arcs": [0, 0]}]},
            "twists[0].arcs[0]: expected an integer, got 0.5",
        ),
        (
            OPENBOOK_TWO_TWISTS,
            {"twists": [{"sign": 1, "arcs": [0, False]}], "twist_pairings": "x"},
            "twists[0].arcs[1]: expected an integer, got False",
        ),
        (
            OPENBOOK_TWO_TWISTS,
            {"twists": [{"sign": 1, "arcs": {"0": 1, "1": 2}}]},
            "twists[0].arcs: expected an array of integers",
        ),
        (OPENBOOK_TWO_TWISTS, {"knot": {"arcs": "ab"}}, "knot.arcs: expected an array of integers"),
    ],
)
def test_entry_errors_keep_document_order(base, changes, message):
    obj = {**json.loads(json.dumps(base)), **changes}
    with pytest.raises(ValidationError) as info:
        document_from_obj(obj)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "twist,path,message",
    [
        # not an object
        ([0, 2], "twists[1]", "expected an object"),
        (None, "twists[1]", "expected an object"),
        ("sign", "twists[1]", "expected an object"),
        # a missing or an extra key
        ({"sign": -1}, "twists[1].arcs", "missing required key"),
        ({"arcs": [0, 2]}, "twists[1].sign", "missing required key"),
        ({"sign": -1, "arcs": [0, 2], "knot": 0}, "twists[1].knot", "unknown key"),
        ({"sign": -1, "arc": [0, 2]}, "twists[1].arc", "unknown key"),
        ({"sign": 2, "arcs": [0, True], "x": 0}, "twists[1].x", "unknown key"),
        # a sign that is not the int 1 or -1
        ({"sign": True, "arcs": [0, 2]}, "twists[1].sign", "expected an integer, got True"),
        ({"sign": 1.0, "arcs": [0, 2]}, "twists[1].sign", "expected an integer, got 1.0"),
        ({"sign": "1", "arcs": [0, 2]}, "twists[1].sign", "expected an integer, got '1'"),
        ({"sign": 2, "arcs": [0, 2]}, "twists[1].sign", "must be 1 or -1"),
        ({"sign": 0, "arcs": [0, True]}, "twists[1].sign", "must be 1 or -1"),
        # arcs that are not an array of the page's length
        ({"sign": -1, "arcs": {"0": 0, "1": 2}}, "twists[1].arcs", "expected an array of integers"),
        ({"sign": -1, "arcs": "02"}, "twists[1].arcs", "expected an array of integers"),
        ({"sign": -1, "arcs": None}, "twists[1].arcs", "expected an array of integers"),
        ({"sign": -1, "arcs": [0]}, "twists[1].arcs", "expected 2 entries, got 1"),
        ({"sign": -1, "arcs": [0, 2, 0]}, "twists[1].arcs", "expected 2 entries, got 3"),
        # an entry that is not an int; the first one is named
        ({"sign": -1, "arcs": [True, 2.5]}, "twists[1].arcs[0]", "expected an integer, got True"),
        ({"sign": -1, "arcs": [0, True]}, "twists[1].arcs[1]", "expected an integer, got True"),
        ({"sign": -1, "arcs": [1.0, 2]}, "twists[1].arcs[0]", "expected an integer, got 1.0"),
        ({"sign": -1, "arcs": ["0", 2]}, "twists[1].arcs[0]", "expected an integer, got '0'"),
        ({"sign": -1, "arcs": [0, [2]]}, "twists[1].arcs[1]", "expected an integer, got [2]"),
    ],
)
def test_twist_errors_name_the_first_fault(twist, path, message):
    # the first twist is well formed, so the second is checked after a
    # twist has been built
    obj = json.loads(json.dumps(OPENBOOK_TWO_TWISTS))
    obj["twists"][1] = twist
    with pytest.raises(ValidationError) as info:
        document_from_obj(obj)
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


def checked_rebuild(obj):
    """The document obj describes, built through the checked constructors
    from the decoded JSON alone."""
    strings = {"name": obj.get("name"), "description": obj.get("description")}
    if obj["mode"] == "openbook":
        page = PageSurface(obj["page"]["genus"], obj["page"]["boundary"])
        twists = [DehnTwist(twist["sign"], twist["arcs"]) for twist in obj["twists"]]
        pairings = IntegerMatrix.from_rows(obj["twist_pairings"])
        knot = PageKnot(obj["knot"]["arcs"]) if "knot" in obj else None
        return InputDocument(
            open_book=OpenBookPresentation(page, twists, pairings), knot=knot, **strings
        )
    heegaard = HeegaardData(
        obj["genus"],
        IntegerMatrix.from_rows(obj["C"]),
        obj.get("A"),
        obj.get("I"),
        obj.get("dividing", 0),
    )
    return InputDocument(heegaard=heegaard, **strings)


def seeded_documents(count=200):
    """Written documents of seeded helpers books, knots and Heegaard data,
    with and without a knot, a name and a description."""
    for seed in range(count):
        rng = random.Random(seed)
        strings = {"name": f"seed {seed}"} if seed % 3 else {"description": "seeded"}
        if seed % 2:
            book = helpers.random_open_book(rng)
            knot = helpers.random_knot(rng, book) if seed % 4 == 1 else None
            document = InputDocument(open_book=book, knot=knot, **strings)
        else:
            data = helpers.random_heegaard(rng)
            if seed % 4 == 2:
                data = HeegaardData(data.genus, data.relations)
            document = InputDocument(heegaard=data, **strings)
        yield document, dumps_document(document)


DOCUMENT_NAMES = conftest.FIXTURE_NAMES + [
    "long-word",
    "big-certificate",
    "knotless-openbook",
    "knotless-heegaard",
]


@pytest.mark.parametrize("name", DOCUMENT_NAMES + ["seeded-helpers"])
def test_parsed_documents_match_their_checked_rebuild(name):
    # the parser builds each record without its constructor's checks; what
    # it builds must equal, hash and print as what the checked
    # constructors build from the same JSON
    if name == "seeded-helpers":
        cases = list(seeded_documents())
    else:
        cases = [(None, conftest.document_path(name).read_text())]
    for written_from, text in cases:
        parsed = parse_document(text)
        rebuilt = checked_rebuild(json.loads(text))
        assert parsed == rebuilt
        assert hash(parsed) == hash(rebuilt)
        assert repr(parsed) == repr(rebuilt)
        if written_from is not None:
            assert parsed == written_from and repr(parsed) == repr(written_from)


RECORD_CLASSES = (
    PageSurface,
    DehnTwist,
    PageKnot,
    OpenBookPresentation,
    IntegerMatrix,
    HeegaardData,
    InputDocument,
)


def test_the_parser_runs_no_record_constructor(monkeypatch):
    # every record the parser builds goes through _Record._derive, so it
    # parses the same documents with every record's __init__ refusing
    paths = sorted(conftest.FIXTURES.glob("*.json")) + sorted(conftest.DATA.glob("*.json"))
    texts = [path.read_text() for path in paths]
    expected = [parse_document(text) for text in texts]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ ran")

    for cls in RECORD_CLASSES:
        monkeypatch.setattr(cls, "__init__", refuse)
    parsed = [parse_document(text) for text in texts]
    assert parsed == expected
    assert [repr(document) for document in parsed] == [repr(document) for document in expected]


@given(skew_blocks_with_faults())
@settings(deadline=None, max_examples=300)
def test_parser_names_the_column_scans_skew_fault(block):
    """On twists with empty arcs on a disk page, the parser accepts
    exactly the pairing blocks the column scan finds skew, and otherwise
    names the scan's first fault by its path."""
    count, entries = block
    obj = {
        "mode": "openbook",
        "page": {"genus": 0, "boundary": 1},
        "twists": [{"sign": 1, "arcs": []}] * count,
        "twist_pairings": [entries[k * count : (k + 1) * count] for k in range(count)],
    }
    fault = oracles.skew_fault(entries, count)
    if fault is None:
        document = parse_document(json.dumps(obj))
        assert document.open_book.twist_pairings.entries == tuple(entries)
        return
    row, col = fault
    with pytest.raises(ValidationError) as info:
        parse_document(json.dumps(obj))
    detail = "diagonal must be 0" if row == col else f"must equal -twist_pairings[{col}][{row}]"
    assert str(info.value) == f"twist_pairings[{row}][{col}]: skew-symmetry violated ({detail})"


# objects missing several keys: the first missing one in schema order is
# named, whatever the hash seed
SEVERAL_MISSING = [
    ({"mode": "heegaard"}, "genus: missing required key"),
    ({**OPENBOOK_TWO_TWISTS, "page": {}}, "page.genus: missing required key"),
]

NAME_ERRORS = """
import json, sys
from tbcalc.documents import ValidationError, document_from_obj
for obj in json.load(sys.stdin):
    try:
        document_from_obj(obj)
    except ValidationError as error:
        print(error)
"""


def test_several_missing_keys_name_the_first_in_schema_order():
    objs = json.dumps([obj for obj, _ in SEVERAL_MISSING])
    for seed in "0123":
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(conftest.SRC)}
        result = subprocess.run(
            [sys.executable, "-c", NAME_ERRORS],
            input=objs,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.splitlines() == [message for _, message in SEVERAL_MISSING]


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"mode": "heegaard", "genus": 0, "C": [], 5: 1}, "5: unknown key"),
        ({**OPENBOOK_TWO_TWISTS, "page": {"genus": 0, "boundary": 3, 7: 0}}, "page.7: unknown key"),
        ({**OPENBOOK_TWO_TWISTS, "knot": {"arcs": [1, 1], None: 0}}, "knot.None: unknown key"),
    ],
)
def test_a_key_that_is_not_a_string_is_named(obj, message):
    # decoded JSON has string keys only; a dict built in Python may not
    with pytest.raises(ValidationError) as info:
        document_from_obj(obj)
    assert str(info.value) == message


def test_matrix_errors_keep_row_order():
    # a bad entry in an earlier row wins over a short later row, and back
    obj = openbook_obj(
        twists=[{"sign": 1, "arcs": [1]}, {"sign": 1, "arcs": [1]}],
        twist_pairings=[[0, "x"], [0]],
    )
    with pytest.raises(ValidationError, match=r"^twist_pairings\[0\]\[1\]: expected an integer"):
        document_from_obj(obj)
    obj["twist_pairings"] = [[0], [0, "x"]]
    with pytest.raises(ValidationError, match=r"^twist_pairings\[0\]: expected 2 entries"):
        document_from_obj(obj)


def _skew_obj(pairings):
    count = len(pairings)
    return {
        "mode": "openbook",
        "page": {"genus": 0, "boundary": 2},
        "twists": [{"sign": 1, "arcs": [1]}] * count,
        "twist_pairings": pairings,
    }


def _skew_rows(count):
    rows = [[0] * count for _ in range(count)]
    for k in range(count):
        for m in range(k + 1, count):
            value = (3 * k + 5 * m) % 7 - 3
            rows[k][m], rows[m][k] = value, -value
    return rows


def test_first_skew_violation_of_a_large_matrix():
    rows = _skew_rows(150)
    document_from_obj(_skew_obj(rows))
    # column 40 is met before column 60, and within it row 149 before none
    rows[120][60] += 1
    rows[149][40] += 2
    with pytest.raises(ValidationError) as info:
        document_from_obj(_skew_obj(rows))
    assert info.value.path == "twist_pairings[149][40]"
    assert str(info.value) == (
        "twist_pairings[149][40]: skew-symmetry violated "
        "(must equal -twist_pairings[40][149])"
    )
    # an upper-triangle change is reported at its mirror entry
    rows = _skew_rows(150)
    rows[40][149] += 1
    with pytest.raises(ValidationError, match=r"^twist_pairings\[149\]\[40\]: "):
        document_from_obj(_skew_obj(rows))
    # a diagonal entry is met before the rest of its column
    rows[40][40] = 1
    with pytest.raises(ValidationError) as info:
        document_from_obj(_skew_obj(rows))
    assert str(info.value) == (
        "twist_pairings[40][40]: skew-symmetry violated (diagonal must be 0)"
    )

