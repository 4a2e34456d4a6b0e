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
symmetry violations are rejected with the offending field's path.  The
parser checks each field where it stands in document order, so the first
fault is the one named, and builds each record once from the checked
values without its constructor's checks (_Record._derive); only
OpenBookPresentation's constructor runs, for the skew check.  Library
callers who build records themselves get the constructors' checks, so
either way each datum is checked once.

dumps_document writes the keys above in that order, laid out as
``json.dumps(..., indent=2)`` lays them out, straight from the typed
records; tests/oracles.py keeps the json.dumps route as its reference.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Union

from .heegaard import HeegaardData
from .lattice import IntegerMatrix, _Record, _set
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


class InputDocument(_Record):
    """One parsed input file.

    Exactly one of open_book/heegaard is set, and mode follows from
    which.  A missing knot is None: knot for an open book, the knot
    vectors of the HeegaardData for a heegaard document.  knot comes
    only with open_book and pairs with each of the page's cut arcs;
    anything else raises ValueError.  name and description are strings
    or None; anything else raises TypeError.
    """

    def __init__(
        self,
        open_book: OpenBookPresentation | None = None,
        knot: PageKnot | None = None,
        heegaard: HeegaardData | None = None,
        name: str | None = None,
        description: str | None = None,
    ) -> None:
        if (open_book is None) == (heegaard is None):
            raise ValueError("exactly one of open_book and heegaard must be set")
        if knot is not None and open_book is None:
            raise ValueError("knot requires open_book; a heegaard knot lives in its HeegaardData")
        if knot is not None and len(knot.arc_pairings) != open_book.page.arc_count:
            raise ValueError("knot must pair with each of the page's cut arcs")
        for field, text in (("name", name), ("description", description)):
            if text is not None and not isinstance(text, str):
                raise TypeError(f"{field} must be a string or None, got {text!r}")
        _set(self, "open_book", open_book)
        _set(self, "knot", knot)
        _set(self, "heegaard", heegaard)
        _set(self, "name", name)
        _set(self, "description", description)

    @property
    def mode(self) -> str:
        return "openbook" if self.open_book is not None else "heegaard"


def _path(parts: tuple) -> str:
    """The path of a field from its keys and indices, built only to name a
    fault: ("twists", 3, "arcs") is twists[3].arcs."""
    return parts[0] + "".join([f"[{p}]" if type(p) is int else f".{p}" for p in parts[1:]])


def _require_keys(obj: dict, path: tuple, required: tuple, optional: tuple = ()) -> None:
    """Names the first unknown key in the object's order, then the first
    missing key in schema order."""
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(_path(path + (str(key),)), "unknown key")
    for key in required:
        if key not in obj:
            raise ValidationError(_path(path + (key,)), "missing required key")


def _as_int(value: Any, path: tuple) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(_path(path), f"expected an integer, got {value!r}")
    return value


def _as_str(value: Any, path: tuple) -> str:
    if not isinstance(value, str):
        raise ValidationError(_path(path), "expected a string")
    return value


def _as_ints(value: Any, path: tuple, length: int) -> list:
    """value, once it is an array of length ints.  The entries are walked
    to name the first fault only when their types are not all int."""
    if not isinstance(value, list):
        raise ValidationError(_path(path), "expected an array of integers")
    if len(value) != length:
        raise ValidationError(_path(path), f"expected {length} entries, got {len(value)}")
    if set(map(type, value)) - {int}:
        for i, entry in enumerate(value):
            _as_int(entry, path + (i,))
    return value


def _as_matrix(value: Any, path: tuple, rows: int, cols: int) -> IntegerMatrix:
    if not isinstance(value, list):
        raise ValidationError(_path(path), "expected an array of rows")
    if len(value) != rows:
        raise ValidationError(_path(path), f"expected {rows} rows, got {len(value)}")
    entries: list = []
    for i, row in enumerate(value):
        entries += _as_ints(row, path + (i,), cols)
    return IntegerMatrix._derive(rows=rows, cols=cols, entries=tuple(entries))


def _parse_open_book(obj: dict) -> tuple[OpenBookPresentation, PageKnot | None]:
    page_obj = obj["page"]
    if not isinstance(page_obj, dict):
        raise ValidationError("page", "expected an object")
    _require_keys(page_obj, ("page",), ("genus", "boundary"))
    genus = _as_int(page_obj["genus"], ("page", "genus"))
    boundary = _as_int(page_obj["boundary"], ("page", "boundary"))
    if genus < 0:
        raise ValidationError("page.genus", "must be nonnegative")
    if boundary < 1:
        raise ValidationError("page.boundary", "must be at least 1")
    page = PageSurface._derive(genus=genus, boundary_components=boundary)
    arc_count = page.arc_count

    twists_obj = obj["twists"]
    if not isinstance(twists_obj, list):
        raise ValidationError("twists", "expected an array")
    twists = []
    for k, twist_obj in enumerate(twists_obj):
        if not isinstance(twist_obj, dict):
            raise ValidationError(f"twists[{k}]", "expected an object")
        if twist_obj.keys() != {"sign", "arcs"}:
            _require_keys(twist_obj, ("twists", k), ("sign", "arcs"))
        sign = _as_int(twist_obj["sign"], ("twists", k, "sign"))
        if sign not in (1, -1):
            raise ValidationError(f"twists[{k}].sign", "must be 1 or -1")
        arcs = _as_ints(twist_obj["arcs"], ("twists", k, "arcs"), arc_count)
        twists.append(DehnTwist._derive(sign=sign, arc_pairings=tuple(arcs)))

    count = len(twists)
    pairings = _as_matrix(obj["twist_pairings"], ("twist_pairings",), count, count)
    try:
        open_book = OpenBookPresentation(page, twists, pairings)
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
        _require_keys(knot_obj, ("knot",), ("arcs",))
        arcs = _as_ints(knot_obj["arcs"], ("knot", "arcs"), arc_count)
        knot = PageKnot._derive(arc_pairings=tuple(arcs))

    return open_book, knot


def _parse_heegaard(obj: dict) -> HeegaardData:
    genus = _as_int(obj["genus"], ("genus",))
    if genus < 0:
        raise ValidationError("genus", "must be nonnegative")
    relations = _as_matrix(obj["C"], ("C",), genus, genus)

    knot_generators = knot_relations = None
    dividing = 0
    block_keys = [key for key in ("A", "I", "dividing") if key in obj]
    if block_keys:
        for key in ("A", "I"):
            if key not in obj:
                raise ValidationError(key, f"required alongside {', '.join(block_keys)}")
        knot_generators = tuple(_as_ints(obj["A"], ("A",), genus))
        knot_relations = tuple(_as_ints(obj["I"], ("I",), genus))
        dividing = _as_int(obj.get("dividing", 0), ("dividing",))
        if dividing < 0:
            raise ValidationError("dividing", "must be nonnegative")
        if dividing % 2:
            raise ValidationError("dividing", "must be even (a closed curve crosses the dividing set evenly)")
    return HeegaardData._derive(
        genus=genus,
        relations=relations,
        knot_generators=knot_generators,
        knot_relations=knot_relations,
        dividing_intersections=dividing,
    )


def document_from_obj(obj: Any) -> InputDocument:
    """Validate a decoded JSON object and build the document."""
    if not isinstance(obj, dict):
        raise ValidationError("$", "top level must be an object")
    mode = obj.get("mode")
    if mode not in ("openbook", "heegaard"):
        raise ValidationError("mode", "must be 'openbook' or 'heegaard'")
    if mode == "openbook":
        _require_keys(
            obj, (), ("mode", "page", "twists", "twist_pairings"), ("name", "description", "knot")
        )
    else:
        _require_keys(obj, (), ("mode", "genus", "C"), ("name", "description", "A", "I", "dividing"))

    name = _as_str(obj["name"], ("name",)) if "name" in obj else None
    description = _as_str(obj["description"], ("description",)) if "description" in obj else None

    if mode == "openbook":
        open_book, knot = _parse_open_book(obj)
        return InputDocument(open_book=open_book, knot=knot, name=name, description=description)
    return InputDocument(heegaard=_parse_heegaard(obj), name=name, description=description)


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


def _list(items: list[str], indent: str) -> str:
    """items as a JSON array nested at indent, one item per line."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _object(members: dict[str, str], indent: str) -> str:
    """Written values keyed by ASCII names as a JSON object nested at indent."""
    inner = indent + "  "
    body = (",\n" + inner).join([f'"{key}": {value}' for key, value in members.items()])
    return "{\n" + inner + body + "\n" + indent + "}"


def _ints(width: int, indent: str) -> str:
    """The template of an array of width ints nested at indent."""
    return _list(["%d"] * width, indent)


def _matrix(matrix: IntegerMatrix, indent: str) -> str:
    return _list([_ints(matrix.cols, indent + "  ")] * matrix.rows, indent) % matrix.entries


def dumps_document(document: InputDocument) -> str:
    """The document as ``json.dumps(..., indent=2)`` lays it out, plus a
    trailing newline.  Each array of ints is a ``%d`` template sized from
    the page or the genus and filled from the ints as stored; strings
    never pass through a template."""
    members = {"mode": f'"{document.mode}"'}
    if document.name is not None:
        members["name"] = encode_basestring_ascii(document.name)
    if document.description is not None:
        members["description"] = encode_basestring_ascii(document.description)
    open_book = document.open_book
    if open_book is not None:
        page = open_book.page
        arcs = _ints(page.arc_count, "      ")
        twist = _object({"sign": "%d", "arcs": arcs}, "    ")
        signs_and_arcs = [x for t in open_book.twists for x in (t.sign, *t.arc_pairings)]
        members["page"] = _object(
            {"genus": "%d" % page.genus, "boundary": "%d" % page.boundary_components}, "  "
        )
        members["twists"] = _list([twist] * len(open_book.twists), "  ") % tuple(signs_and_arcs)
        members["twist_pairings"] = _matrix(open_book.twist_pairings, "  ")
        if document.knot is not None:
            knot_arcs = _ints(page.arc_count, "    ") % document.knot.arc_pairings
            members["knot"] = _object({"arcs": knot_arcs}, "  ")
    else:
        heegaard = document.heegaard
        members["genus"] = "%d" % heegaard.genus
        members["C"] = _matrix(heegaard.relations, "  ")
        if heegaard.knot_generators is not None:
            members["A"] = _ints(heegaard.genus, "  ") % heegaard.knot_generators
            members["I"] = _ints(heegaard.genus, "  ") % heegaard.knot_relations
            members["dividing"] = "%d" % heegaard.dividing_intersections
    return _object(members, "") + "\n"


def write_document(document: InputDocument, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_document(document))
