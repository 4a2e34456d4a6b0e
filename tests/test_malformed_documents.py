"""What `tbcalc tb` prints for malformed documents is pinned.

Each variant breaks a valid document in one place, at every check the
parser makes, and again together with a fault in a later field, so the
first fault in document order is the one reported.  Its exit code and
stderr must match `tests/data/golden/malformed.json`.  Documents with
more than one missing key in one object are left out: the key they name
is the first missing one in schema order, which `test_documents.py`
checks under several hash seeds.  After an intended change of the error
messages, rewrite that file with
`PYTHONPATH=src python tests/test_malformed_documents.py`.

That file is also the home of the parser's messages: each variant's
golden stderr must be the error `parse_document` raises on its text, a
`ParseError`, or a `ValidationError` whose message opens with its path.
"""

import copy
import json
import pathlib
import tempfile

import conftest
from tbcalc import DocumentError, ParseError, ValidationError, parse_document

GOLDEN = conftest.DATA / "golden" / "malformed.json"
DELETE = object()

OPENBOOK = {
    "mode": "openbook",
    "name": "base",
    "description": "two twists on a torus with one hole",
    "page": {"genus": 1, "boundary": 1},
    "twists": [{"sign": 1, "arcs": [1, 0]}, {"sign": -1, "arcs": [0, 2]}],
    "twist_pairings": [[0, 1], [-1, 0]],
    "knot": {"arcs": [1, 1]},
}

HEEGAARD = {
    "mode": "heegaard",
    "name": "base",
    "description": "genus two with a knot",
    "genus": 2,
    "C": [[1, 0], [0, 2]],
    "A": [1, 0],
    "I": [0, 1],
    "dividing": 2,
}

NOT_INTS = [True, False, 1.5, "1", None, [1], {}]
NOT_ARRAYS = [{}, "ab", None, 3]
NOT_OBJECTS = [[], [1, 1], "ab", None, 3]


def entry_faults(path, length):
    """Bad entries of the int vector at path, of its length and of its type."""
    faults = [(path + (i,), bad) for i in range(length) for bad in NOT_INTS[:5]]
    faults += [(path + (length - 1,), bad) for bad in NOT_INTS[5:]]
    faults += [(path, bad) for bad in NOT_ARRAYS]
    faults += [(path, [0] * (length - 1)), (path, [0] * (length + 1)), (path, [])]
    return faults


def matrix_faults(path, size):
    faults = [(path, bad) for bad in NOT_ARRAYS]
    faults += [(path, [[0] * size] * (size - 1)), (path, [[0] * size] * (size + 1))]
    for i in range(size):
        faults += [(path + (i,), bad) for bad in NOT_ARRAYS]
        faults += [(path + (i,), [0] * (size - 1)), (path + (i,), [0] * (size + 1))]
        faults += [(path + (i, j), bad) for j in range(size) for bad in NOT_INTS[:5]]
    return faults


# the faults of each field of a mode, the fields in the order the parser
# checks them; ("key",) with DELETE removes a key, () replaces the document
OPENBOOK_FIELDS = {
    "top": [
        ((), [1, 2]),
        ((), None),
        ((), "openbook"),
        (("mode",), DELETE),
        (("mode",), "open book"),
        (("mode",), 1),
        (("mode",), None),
        (("mode",), "heegaard"),
        (("extra",), 1),
        (("A",), [1, 0]),
        (("page",), DELETE),
        (("twists",), DELETE),
        (("twist_pairings",), DELETE),
    ],
    "name": [(("name",), bad) for bad in (7, None, True, ["x"])],
    "description": [(("description",), bad) for bad in (7, {}, False)],
    "page": [(("page",), bad) for bad in NOT_OBJECTS]
    + [
        (("page",), {"genus": 1}),
        (("page",), {"boundary": 1}),
        (("page", "holes"), 0),
        (("page", "genus"), -1),
        (("page", "boundary"), 0),
        (("page", "boundary"), -2),
    ]
    + [(("page", "genus"), bad) for bad in NOT_INTS]
    + [(("page", "boundary"), bad) for bad in NOT_INTS],
    "twists": [(("twists",), bad) for bad in ({}, "t", None, 1)]
    + [(("twists",), []), (("twists",), OPENBOOK["twists"][:1])]
    + [
        fault
        for k in (0, 1)
        for fault in [(("twists", k), bad) for bad in NOT_OBJECTS]
        + [
            (("twists", k, "sign"), DELETE),
            (("twists", k, "arcs"), DELETE),
            (("twists", k, "knot"), 0),
            (("twists", k, "sign"), 0),
            (("twists", k, "sign"), 2),
            (("twists", k, "sign"), -2),
        ]
        + [(("twists", k, "sign"), bad) for bad in NOT_INTS + [1.0, -1.0]]
        + entry_faults(("twists", k, "arcs"), 2)
    ],
    "twist_pairings": matrix_faults(("twist_pairings",), 2)
    + [
        (("twist_pairings",), [[1, 1], [-1, 0]]),
        (("twist_pairings",), [[0, 1], [-1, -3]]),
        (("twist_pairings",), [[0, 1], [1, 0]]),
        (("twist_pairings",), [[0, 0], [-1, 0]]),
    ],
    "knot": [(("knot",), bad) for bad in NOT_OBJECTS]
    + [(("knot",), {}), (("knot", "arms"), [1, 1]), (("knot", "sign"), 1)]
    + entry_faults(("knot", "arcs"), 2),
}

HEEGAARD_FIELDS = {
    "top": [
        (("mode",), DELETE),
        (("mode",), "Heegaard"),
        (("knot",), {"arcs": [1, 1]}),
        (("twists",), []),
        (("genus",), DELETE),
        (("C",), DELETE),
    ],
    "name": [(("name",), bad) for bad in (0, None)],
    "description": [(("description",), bad) for bad in (0, ["d"])],
    "genus": [(("genus",), bad) for bad in NOT_INTS + [-1, 2.0, 3, 1]],
    "C": matrix_faults(("C",), 2),
    "A": [(("A",), DELETE)] + entry_faults(("A",), 2),
    "I": [(("I",), DELETE)] + entry_faults(("I",), 2),
    "dividing": [(("dividing",), bad) for bad in NOT_INTS + [-2, 3, 1, -1, 2.0]],
}

# one fault per field that a fault of an earlier field is combined with
LATER = {
    "name": (("name",), 7),
    "description": (("description",), [1]),
    "page": (("page", "genus"), -1),
    "twists": (("twists", 1, "sign"), 0),
    "twist_pairings": (("twist_pairings", 1, 0), 5),
    "knot": (("knot", "arcs", 1), True),
    "genus": (("genus",), "2"),
    "C": (("C", 1, 1), 0.5),
    "A": (("A", 1), None),
    "I": (("I",), [0]),
    "dividing": (("dividing",), 3),
}

# faults that pair with a later fault of the same field
WITHIN = [
    (OPENBOOK, ("twists", 0, "arcs", 1), 0.5, ("twists", 1, "arcs"), [0]),
    (OPENBOOK, ("twists", 0, "sign"), 3, ("twists", 1, "arcs", 0), "0"),
    (OPENBOOK, ("twists", 0, "arcs"), [0], ("twists", 1), None),
    (OPENBOOK, ("twists", 1, "arcs", 0), None, ("twists", 1, "sign"), 0),
    (OPENBOOK, ("twists", 1, "x"), 0, ("twists", 1, "sign"), True),
    (OPENBOOK, ("twists", 1, "arcs", 0), True, ("twists", 1, "arcs", 1), 2.5),
    (OPENBOOK, ("twist_pairings", 0, 1), "x", ("twist_pairings", 1), [0]),
    (OPENBOOK, ("twist_pairings", 0), [0], ("twist_pairings", 1, 0), "x"),
    (OPENBOOK, ("twist_pairings", 1, 0), 2.0, ("twist_pairings", 1, 1), 1),
    (OPENBOOK, ("twist_pairings", 0, 1), 5, ("twist_pairings", 1, 1), 1),
    (OPENBOOK, ("twist_pairings", 1, 1), 1, ("twist_pairings", 0, 0), 1),
    (OPENBOOK, ("knot", "arcs", 0), 0.5, ("knot", "arcs", 1), "1"),
    (OPENBOOK, ("knot", "x"), 0, ("knot", "arcs"), DELETE),
    (OPENBOOK, ("page", "genus"), -1, ("page", "boundary"), 0),
    (OPENBOOK, ("page", "boundary"), 2, ("page", "genus"), None),
    (OPENBOOK, ("page", "genus"), 0, ("twists", 0, "arcs", 0), 0.5),
    (OPENBOOK, ("extra",), 0, ("name",), 7),
    (HEEGAARD, ("C", 0, 0), "x", ("C", 1), [0]),
    (HEEGAARD, ("C", 0), [0], ("C", 1, 0), "x"),
    (HEEGAARD, ("A", 0), 0.5, ("A", 1), None),
    (HEEGAARD, ("A",), [0], ("I", 0), True),
    (HEEGAARD, ("A",), DELETE, ("I",), DELETE),
    (HEEGAARD, ("A",), DELETE, ("dividing",), DELETE),
    (HEEGAARD, ("I",), DELETE, ("dividing",), DELETE),
    (HEEGAARD, ("A",), DELETE, ("I",), "x"),
    (HEEGAARD, ("genus",), 0, ("C",), []),
    (HEEGAARD, ("genus",), 1, ("C",), [[1]]),
    (HEEGAARD, ("dividing",), -3, ("I", 1), 0.5),
]

RAW = {
    "empty": "",
    "truncated": '{"mode": "openbook",\n  "page": }',
    "trailing text": '{"mode": "heegaard", "genus": 0, "C": []} x',
    "unknown key first": '{"zzz": 0, "mode": "heegaard", "genus": 0, "C": [], "qqq": 1}',
    "NaN entry": '{"mode": "heegaard", "genus": 1, "C": [[NaN]]}',
    "Infinity genus": '{"mode": "heegaard", "genus": Infinity, "C": []}',
    "big float entry": '{"mode": "heegaard", "genus": 1, "C": [[1e400]]}',
    "duplicate key": '{"mode": "heegaard", "genus": 1, "genus": -1, "C": []}',
    "nested too deeply": "[" * 100000,
}


def label(path, value):
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path) or "$"
    return f"{where}{' deleted' if value is DELETE else '=' + json.dumps(value)}"


def apply(obj, path, value):
    if not path:
        return copy.deepcopy(value)
    target = obj
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = copy.deepcopy(value)
    return obj


def broken(base, *faults):
    """base with each fault applied in turn; None when a fault's path no
    longer exists."""
    obj = copy.deepcopy(base)
    for path, value in faults:
        try:
            obj = apply(obj, path, value)
        except (KeyError, IndexError, TypeError):
            return None
    return obj


def variants():
    """name -> document text of every malformed variant."""
    texts = {f"raw {name}": text for name, text in RAW.items()}
    for mode, base, fields in (
        ("openbook", OPENBOOK, OPENBOOK_FIELDS),
        ("heegaard", HEEGAARD, HEEGAARD_FIELDS),
    ):
        order = list(fields)
        for position, field in enumerate(order):
            later = order[position + 1 :]
            for fault in fields[field]:
                name = f"{mode} {label(*fault)}"
                texts[name] = json.dumps(broken(base, fault))
                # the next field and the last one are enough to show that
                # the earlier fault wins
                for late in dict.fromkeys(later[:1] + later[-1:]):
                    obj = broken(base, fault, LATER[late])
                    if obj is not None:
                        texts[f"{name} + {label(*LATER[late])}"] = json.dumps(obj)
    for base, *pair in WITHIN:
        first, second = tuple(pair[:2]), tuple(pair[2:])
        obj = broken(base, first, second)
        assert obj is not None
        texts[f"{base['mode']} {label(*first)} + {label(*second)}"] = json.dumps(obj)
    return texts


VARIANTS = variants()


def run_tb(text, directory):
    path = directory / "doc.json"
    path.write_text(text)
    code, stdout, stderr = conftest.run_cli("tb", path)
    return {"exit_code": code, "stdout": stdout, "stderr": stderr}


def test_every_base_document_is_valid(tmp_path):
    for base in (OPENBOOK, HEEGAARD):
        assert run_tb(json.dumps(base), tmp_path)["exit_code"] == 0


def test_every_variant_matches_golden(tmp_path):
    golden = conftest.read_table(GOLDEN)
    assert sorted(golden) == sorted(VARIANTS)
    differing = [name for name, text in VARIANTS.items() if run_tb(text, tmp_path) != golden[name]]
    assert differing == []


def parser_error(text):
    """The DocumentError parse_document raises on text, or None."""
    try:
        parse_document(text)
    except DocumentError as error:
        return error
    return None


def test_every_variant_is_a_parser_error_of_the_golden_message():
    golden = conftest.read_table(GOLDEN)
    for name, text in VARIANTS.items():
        error = parser_error(text)
        assert type(error) is ParseError or (
            type(error) is ValidationError and str(error).startswith(f"{error.path}: ")
        ), name
        assert golden[name]["stderr"] == f"tbcalc: error: {error}\n", name


def write_golden_file():
    with tempfile.TemporaryDirectory() as workdir:
        table = {name: run_tb(text, pathlib.Path(workdir)) for name, text in VARIANTS.items()}
    conftest.write_table(GOLDEN, table)


if __name__ == "__main__":
    write_golden_file()
