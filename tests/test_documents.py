"""Strict parsing, round trips, and every validation path."""

import json

import pytest

import conftest
from tbcalc import (
    ParseError,
    ValidationError,
    dumps_document,
    load_document,
    parse_document,
    write_document,
)
from tbcalc.documents import document_from_obj, document_to_obj


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

