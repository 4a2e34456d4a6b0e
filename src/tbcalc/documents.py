"""Reading and writing the JSON input format.

Top-level keys common to both modes:

    mode          "openbook" or "heegaard"
    name          optional string
    description   optional string

openbook mode:

    page            {"genus": g >= 0, "boundary": r >= 1}
    twists          [{"sign": 1 or -1, "arcs": [n ints]}, ...]
    twist_pairings  l x l skew-symmetric integer matrix (list of rows)
    knot            {"arcs": [n ints]}    -- optional

where n = 2 * genus + boundary - 1 is the page's cut-arc count and l is
the number of twists.

heegaard mode:

    genus       n >= 0
    C           n x n integer matrix (list of rows)
    A           [n ints]   \\
    I           [n ints]    } optional knot block, all or nothing
    dividing    even int >= 0, defaults to 0 when the block is present

Parsing is strict: unknown keys, non-integer numbers, and shape or
symmetry violations are rejected with the offending field's path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Union

from .heegaard import HeegaardData
from .lattice import IntegerMatrix
from .openbook import (
    DehnTwist,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    SkewSymmetryError,
)

__all__ = [
    "DocumentError",
    "ParseError",
    "ValidationError",
    "InputDocument",
    "parse_document",
    "load_document",
    "document_to_obj",
    "dumps_document",
    "write_document",
]


class DocumentError(ValueError):
    """Any problem with an input document."""


class ParseError(DocumentError):
    """The text is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ValidationError(DocumentError):
    """Well-formed JSON that violates the document schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class InputDocument:
    """One parsed input file.

    Exactly one of open_book/heegaard is set, and mode follows from
    which.  A missing knot is None: knot for an open book, the knot
    vectors of the HeegaardData for a heegaard document.
    """

    open_book: OpenBookPresentation | None = None
    knot: PageKnot | None = None
    heegaard: HeegaardData | None = None
    name: str | None = None
    description: str | None = None

    @property
    def mode(self) -> str:
        return "openbook" if self.open_book is not None else "heegaard"


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str]) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{path}{key}" if path else key, "missing required key")


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, "expected a string")
    return value


def _as_vector(value: Any, path: str, length: int) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValidationError(path, "expected an array of integers")
    if len(value) != length:
        raise ValidationError(path, f"expected {length} entries, got {len(value)}")
    for e in value:
        if type(e) is not int:
            return tuple(_as_int(e, f"{path}[{i}]") for i, e in enumerate(value))
    return tuple(value)


def _as_matrix(value: Any, path: str, rows: int, cols: int) -> IntegerMatrix:
    if not isinstance(value, list):
        raise ValidationError(path, "expected an array of rows")
    if len(value) != rows:
        raise ValidationError(path, f"expected {rows} rows, got {len(value)}")
    # IntegerMatrix checks the entries; only a failure needs their paths
    entries: list = []
    for row in value:
        if type(row) is not list or len(row) != cols:
            break
        entries += row
    else:
        try:
            return IntegerMatrix(rows, cols, tuple(entries))
        except TypeError:
            pass
    parsed = [_as_vector(row, f"{path}[{i}]", cols) for i, row in enumerate(value)]
    return IntegerMatrix(rows, cols, tuple(e for row in parsed for e in row))


def _parse_open_book(obj: dict) -> tuple[OpenBookPresentation, PageKnot | None]:
    page_obj = obj["page"]
    if not isinstance(page_obj, dict):
        raise ValidationError("page", "expected an object")
    _require_keys(page_obj, "page.", {"genus", "boundary"}, set())
    genus = _as_int(page_obj["genus"], "page.genus")
    boundary = _as_int(page_obj["boundary"], "page.boundary")
    if genus < 0:
        raise ValidationError("page.genus", "must be nonnegative")
    if boundary < 1:
        raise ValidationError("page.boundary", "must be at least 1")
    page = PageSurface(genus, boundary)

    twists_obj = obj["twists"]
    if not isinstance(twists_obj, list):
        raise ValidationError("twists", "expected an array")
    twists = []
    for k, twist_obj in enumerate(twists_obj):
        twist_path = f"twists[{k}]"
        if not isinstance(twist_obj, dict):
            raise ValidationError(twist_path, "expected an object")
        _require_keys(twist_obj, f"{twist_path}.", {"sign", "arcs"}, set())
        sign = _as_int(twist_obj["sign"], f"{twist_path}.sign")
        if sign not in (1, -1):
            raise ValidationError(f"{twist_path}.sign", "must be 1 or -1")
        arcs = _as_vector(twist_obj["arcs"], f"{twist_path}.arcs", page.arc_count)
        twists.append(DehnTwist(sign, arcs))

    count = len(twists)
    pairings = _as_matrix(obj["twist_pairings"], "twist_pairings", count, count)
    try:
        open_book = OpenBookPresentation(page, tuple(twists), pairings)
    except SkewSymmetryError as error:
        m, k = error.row, error.col
        if m == k:
            raise ValidationError(
                f"twist_pairings[{k}][{k}]", "skew-symmetry violated (diagonal must be 0)"
            ) from error
        raise ValidationError(
            f"twist_pairings[{m}][{k}]",
            f"skew-symmetry violated (must equal -twist_pairings[{k}][{m}])",
        ) from error

    knot = None
    if "knot" in obj:
        knot_obj = obj["knot"]
        if not isinstance(knot_obj, dict):
            raise ValidationError("knot", "expected an object")
        _require_keys(knot_obj, "knot.", {"arcs"}, set())
        knot = PageKnot(_as_vector(knot_obj["arcs"], "knot.arcs", page.arc_count))

    return open_book, knot


def _parse_heegaard(obj: dict) -> HeegaardData:
    genus = _as_int(obj["genus"], "genus")
    if genus < 0:
        raise ValidationError("genus", "must be nonnegative")
    relations = _as_matrix(obj["C"], "C", genus, genus)

    block_keys = [key for key in ("A", "I", "dividing") if key in obj]
    if not block_keys:
        return HeegaardData(genus, relations)
    for key in ("A", "I"):
        if key not in obj:
            raise ValidationError(key, f"required alongside {', '.join(block_keys)}")
    knot_generators = _as_vector(obj["A"], "A", genus)
    knot_relations = _as_vector(obj["I"], "I", genus)
    dividing = _as_int(obj.get("dividing", 0), "dividing")
    if dividing < 0:
        raise ValidationError("dividing", "must be nonnegative")
    if dividing % 2:
        raise ValidationError("dividing", "must be even (a closed curve crosses the dividing set evenly)")
    return HeegaardData(genus, relations, knot_generators, knot_relations, dividing)


def document_from_obj(obj: Any) -> InputDocument:
    """Validate a decoded JSON object and build the document."""
    if not isinstance(obj, dict):
        raise ValidationError("$", "top level must be an object")
    mode = obj.get("mode")
    if mode not in ("openbook", "heegaard"):
        raise ValidationError("mode", "must be 'openbook' or 'heegaard'")
    common = {"mode", "name", "description"}
    if mode == "openbook":
        _require_keys(obj, "", {"mode", "page", "twists", "twist_pairings"}, common | {"knot"})
    else:
        _require_keys(obj, "", {"mode", "genus", "C"}, common | {"A", "I", "dividing"})

    name = _as_str(obj["name"], "name") if "name" in obj else None
    description = _as_str(obj["description"], "description") if "description" in obj else None

    if mode == "openbook":
        open_book, knot = _parse_open_book(obj)
        return InputDocument(
            open_book=open_book, knot=knot, name=name, description=description
        )
    return InputDocument(
        heegaard=_parse_heegaard(obj), name=name, description=description
    )


def parse_document(text: str) -> InputDocument:
    """Parse one JSON document from text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error.msg}", error.lineno, error.colno) from error
    except RecursionError as error:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from error
    except ValueError as error:
        # CPython refuses to convert integer literals of more than
        # sys.get_int_max_str_digits() digits
        raise ParseError(f"invalid JSON: integer literal too long ({error})") from error
    return document_from_obj(raw)


def load_document(source: Union[str, Path, IO[str]]) -> InputDocument:
    """Parse a document from a path or an open text stream."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text()
    except UnicodeDecodeError as error:
        raise ParseError(
            f"cannot decode the document as {error.encoding}: {error.reason} "
            f"at byte {error.start}"
        ) from error
    return parse_document(text)


def document_to_obj(document: InputDocument) -> dict:
    """Serialize back to the JSON-ready structure parse_document accepts."""
    obj: dict[str, Any] = {"mode": document.mode}
    if document.name is not None:
        obj["name"] = document.name
    if document.description is not None:
        obj["description"] = document.description
    open_book = document.open_book
    if open_book is not None:
        obj["page"] = {
            "genus": open_book.page.genus,
            "boundary": open_book.page.boundary_components,
        }
        obj["twists"] = [
            {"sign": twist.sign, "arcs": list(twist.arc_pairings)}
            for twist in open_book.twists
        ]
        obj["twist_pairings"] = open_book.twist_pairings.to_rows()
        if document.knot is not None:
            obj["knot"] = {"arcs": list(document.knot.arc_pairings)}
        return obj
    heegaard = document.heegaard
    if heegaard is None:
        raise DocumentError("heegaard document without heegaard data")
    obj["genus"] = heegaard.genus
    obj["C"] = heegaard.relations.to_rows()
    if heegaard.knot_generators is not None:
        obj["A"] = list(heegaard.knot_generators)
        obj["I"] = list(heegaard.knot_relations)
        obj["dividing"] = heegaard.dividing_intersections
    return obj


def _dumps_indented(value: Any, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for the values document_to_obj builds.

    Containers nested at ``indent`` open on the current line and close on
    a line of their own; a list of plain ints is joined in one C-level
    call.  Everything else, int subclasses included, is written by
    ``json.dumps`` itself.  Keys are strings.
    """
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        separator = ",\n" + inner
        if set(map(type, value)) == {int}:
            body = separator.join(map(int.__repr__, value))
        else:
            body = separator.join([_dumps_indented(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            [
                f"{encode_basestring_ascii(key)}: {_dumps_indented(item, inner)}"
                for key, item in value.items()
            ]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(value)


def dumps_document(document: InputDocument) -> str:
    """The document as ``json.dumps(document_to_obj(document), indent=2)``
    writes it, plus a trailing newline."""
    return _dumps_indented(document_to_obj(document), "") + "\n"


def write_document(document: InputDocument, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_document(document))
