"""Every input ends in exit code 0, 1 or 2: never in an exception.

Inputs are arbitrary bytes and small, loosely shaped JSON documents
(genus at most 3, at most 6 twists) that are often close to valid, so
that they reach the lattice and homology layers as well as the parser;
the fixtures and the first documents of the benchmark's generator with
hostile names and descriptions and matrix entries of 4000 to 5000
digits, across the parser's digit limit; a large page with an empty
word, a dense 44-arc book and a singular 64-arc book with a knot of
infinite order, which must end in time.
"""

import copy
import json
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest
from tbcalc import load_document
from tbcalc.cli import _exact_int_output as unlimited_int_digits

sys.path.append(str(conftest.FIXTURES.parent / "perfbench"))
import gen  # noqa: E402

OUTPUT = "OUTPUT"
COMMANDS = (
    ("tb",),
    ("tb", "--json", "-vv"),
    ("homology", "-vv"),
    ("homology", "--json"),
    ("stabilize", "--sign", "+1", "-o", OUTPUT),
    ("stabilize", "--sign", "-1", "--json", "-o", OUTPUT),
    ("convert", "-o", OUTPUT),
)

small = st.integers(-3, 3)
# anything JSON can hold, mostly small integers
entries = st.one_of(
    small,
    small,
    small,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)


class Shape:
    """Draws the parts of a document: exact when clean, loose otherwise."""

    def __init__(self, draw, clean):
        self.draw = draw
        self.clean = clean

    def length(self, n):
        return n if self.clean else self.draw(st.sampled_from((n, n, n, n + 1, max(n - 1, 0))))

    def vector(self, n):
        entry = small if self.clean else entries
        size = self.length(n)
        return self.draw(st.lists(entry, min_size=size, max_size=size))

    def matrix(self, n, skew=False):
        if skew and (self.clean or self.draw(st.booleans())):
            values = [[0] * n for _ in range(n)]
            for k in range(n):
                for m in range(k):
                    values[k][m] = self.draw(small)
                    values[m][k] = -values[k][m]
            return values
        return [self.vector(n) for _ in range(self.length(n))]

    def pick(self, valid, invalid):
        return self.draw(st.sampled_from(valid if self.clean else valid + invalid))


@st.composite
def openbook_documents(draw, clean):
    shape = Shape(draw, clean)
    genus = draw(st.integers(0, 3))
    boundary = shape.pick((1, 2, 3), (0, -1))
    n = max(2 * genus + boundary - 1, 0)
    count = draw(st.integers(0, 6))
    doc = {
        "mode": "openbook",
        "page": {"genus": genus, "boundary": boundary},
        "twists": [
            {"sign": shape.pick((1, -1), (0, 2, True)), "arcs": shape.vector(n)}
            for _ in range(count)
        ],
        "twist_pairings": shape.matrix(count, skew=True),
    }
    if draw(st.booleans()):
        doc["knot"] = {"arcs": shape.vector(n)}
    return doc


@st.composite
def heegaard_documents(draw, clean):
    shape = Shape(draw, clean)
    genus = draw(st.integers(0, 3))
    doc = {"mode": "heegaard", "genus": genus, "C": shape.matrix(genus)}
    if draw(st.booleans()):
        doc["A"] = shape.vector(genus)
        doc["I"] = shape.vector(genus)
        doc["dividing"] = shape.pick((0, 2, 4), (1, -2))
    return doc


@st.composite
def mangled(draw, documents):
    """A loose document, perhaps with a key dropped, added or replaced."""
    doc = draw(documents)
    how = draw(st.sampled_from(("keep", "drop", "add", "replace")))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[key]
    elif how == "add":
        doc[draw(st.sampled_from(("knot", "A", "page", "extra", "name", "description")))] = draw(entries)
    elif how == "replace":
        doc[key] = draw(st.one_of(entries, st.lists(entries, max_size=3)))
    return doc


json_texts = st.one_of(
    openbook_documents(clean=True),
    heegaard_documents(clean=True),
    mangled(openbook_documents(clean=False)),
    mangled(heegaard_documents(clean=False)),
    st.recursive(entries, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
).map(json.dumps)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


def run_every_command(workdir, data: bytes):
    source = workdir / "input.json"
    source.write_bytes(data)
    output = str(workdir / "output.json")
    for command in COMMANDS:
        argv = [output if arg == OUTPUT else arg for arg in command] + [str(source)]
        code, _, _ = conftest.run_cli(*argv)
        assert code in (0, 1, 2), (argv, data)


@given(st.binary(max_size=200))
@settings(deadline=None, max_examples=100)
def test_arbitrary_bytes(workdir, data):
    run_every_command(workdir, data)


@given(json_texts)
@settings(deadline=None, max_examples=300)
def test_loosely_shaped_documents(workdir, text):
    run_every_command(workdir, text.encode())


# the fixtures and the first round of each open-book workload at seed 7
BASES = {
    **{name: json.loads(conftest.fixture_path(name).read_text(encoding="utf-8")) for name in conftest.FIXTURE_NAMES},
    **{case.name: case.doc for workload in ("ob-tb", "ob-longword") for case in gen.generate(workload, 7, 1)},
}
OPEN_BOOKS = sorted(name for name, doc in BASES.items() if doc["mode"] == "openbook")
HOSTILE_COMMANDS = [
    (*command, *variant)
    for command in (("tb",), ("homology",), ("stabilize", "--sign", "+1", "-o", OUTPUT), ("convert", "-o", OUTPUT))
    for variant in ((), ("--json",), ("-v",))
]
# lone surrogates, NUL, bidi controls and astral code points
HOSTILE = "\udfff\ud800\x00\u202e\u2067\u200f\U0001f600\U0010ffff"
hostile_text = st.text(st.one_of(st.sampled_from(HOSTILE), st.characters()), max_size=6)
# of 4000 to 5000 digits, often either side of CPython's default limit of 4300
long_integers = st.builds(
    lambda digits, low, sign: sign * (10 ** (digits - 1) + low),
    st.one_of(st.sampled_from((4000, 4300, 4301, 5000)), st.integers(4000, 5000)),
    st.integers(0, 10**6),
    st.sampled_from((1, -1)),
)


def integer_paths(doc):
    """The paths of the entries of doc's matrices and vectors, but none
    where C is larger than 4x4: the Smith route on a dense 16x16 C with a
    4300-digit entry takes seconds.  A pairing block's diagonal is left
    out, and so is each entry below it, which mirrors one above."""
    if doc["mode"] == "heegaard":
        if doc["genus"] > 4:
            return []
        paths = [("C", i, j) for i, row in enumerate(doc["C"]) for j in range(len(row))]
        return paths + [(key, i) for key in ("A", "I") if key in doc for i in range(len(doc[key]))]
    if len(doc["knot"]["arcs"]) > 4:
        return []
    count = len(doc["twists"])
    paths = [("twist_pairings", i, j) for i in range(count) for j in range(i + 1, count)]
    paths += [("twists", k, "arcs", m) for k, twist in enumerate(doc["twists"]) for m in range(len(twist["arcs"]))]
    return paths + [("knot", "arcs", m) for m in range(len(doc["knot"]["arcs"]))]


def put(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@st.composite
def hostile_documents(draw):
    """(a document's bytes, whether convert must write it): a base with a
    hostile name and description and perhaps one entry of 4000 to 5000
    digits, written ASCII with escapes or as UTF-8 with lone surrogates
    left raw."""
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    doc.update(name=draw(hostile_text), description=draw(hostile_text))
    paths = integer_paths(doc)
    long_entry = bool(paths) and draw(st.booleans())
    if long_entry:
        path, value = draw(st.sampled_from(paths)), draw(long_integers)
        put(doc, path, value)
        if path[0] == "twist_pairings":
            put(doc, (path[0], path[2], path[1]), -value)
    with unlimited_int_digits():
        text = json.dumps(doc, ensure_ascii=draw(st.booleans()))
    data = text.encode("utf-8", "surrogatepass")
    readable = data == text.encode("utf-8", "replace")
    return data, doc["mode"] == "openbook" and readable and not long_entry


@given(hostile_documents())
@settings(deadline=None, max_examples=60)
def test_hostile_names_and_long_integers(workdir, case):
    """Every command, plain, --json and -v, ends in exit 0, 1 or 2, and
    what convert writes reads back with the name and description it was
    given; it writes every readable open book with no long entry."""
    data, writable = case
    source = workdir / "input.json"
    source.write_bytes(data)
    output = workdir / "output.json"
    for command in HOSTILE_COMMANDS:
        output.unlink(missing_ok=True)
        argv = [output if arg == OUTPUT else arg for arg in command]
        code, _, _ = conftest.run_cli(*argv, source)
        assert code in (0, 1, 2), (argv, data)
        if command[0] == "convert":
            assert code == 0 or not writable, (argv, data)
            if code == 0:
                written, read = load_document(output), load_document(source)
                assert (written.name, written.description) == (read.name, read.description)


@pytest.mark.parametrize("base", OPEN_BOOKS)
def test_convert_output_reparses(tmp_path, base):
    """convert writes each open-book fixture and generated book, named and
    described in hostile code points, as a document that reads back with
    them and has the same verdict and tb."""
    source, output = tmp_path / "input.json", tmp_path / "output.json"
    source.write_text(json.dumps({**BASES[base], "name": HOSTILE, "description": "nœud " + HOSTILE}))
    assert conftest.run_cli("convert", "-o", output, source) == (0, f"wrote {output}\n", "")
    written = load_document(output)
    assert (written.name, written.description) == (HOSTILE, "nœud " + HOSTILE)
    # the written C is -C, so the certificate is -E; the verdict and tb stay
    (code, out, err), converted = conftest.run_cli("tb", source), conftest.run_cli("tb", output)
    assert converted[0] == code and converted[1].splitlines()[:2] == out.splitlines()[:2] and converted[2] == err


@pytest.mark.parametrize(
    "command, stdout",
    [
        ("homology", "H1(M) = Z^600\nH1(M \\ nu K) = Z^601\ncomplement lemma: holds\n"),
        ("tb", f"verdict: nullhomologous\norder 1, tb = 0\ncertificate E = {[0] * 600}\n"),
    ],
    ids=["homology", "tb"],
)
def test_empty_word_on_a_genus_300_page(command, stdout):
    """C is the 600x600 zero matrix: tb's Smith form and the products that
    check it skip every entry, and so do the products that check homology's
    left-kernel rows and transforms modulo m = 1, so the command ends well
    within 60 s."""
    result = subprocess.run(
        [sys.executable, "-m", "tbcalc", command, str(conftest.DATA / "empty-word-genus-300.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


def test_homology_of_a_dense_44_arc_book():
    """C is 44x44, dense, with entries of up to 46 bits and a determinant
    of 274 bits: homology reads its groups modulo pivot minors, |det C|
    for C itself, and makes no Smith form, so the command ends well
    within 60 s."""
    result = subprocess.run(
        [sys.executable, "-m", "tbcalc", "homology", str(conftest.DATA / "nonsingular-44.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    order = 26576303558999714226682476320155293176042705432171024367779212073708605601009394199
    stdout = f"H1(M) = Z/{order}\nH1(M \\ nu K) = Z\ncomplement lemma: FAILS\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


@pytest.mark.parametrize("command", ["tb", "stabilize", "homology"])
def test_infinite_order_on_a_singular_64_arc_book(command, tmp_path):
    """C is 64x64 of rank 40 and the knot lies outside its rational column
    span: one elimination finds a row u with u @ C == 0 and u . A != 0,
    and homology reads H1(M) modulo a nonzero minor of order 40, both
    with no Smith form, so the command ends well within 60 s."""
    written = tmp_path / "out.json"
    out = ["--sign", "+1", "-o", str(written)] if command == "stabilize" else []
    result = subprocess.run(
        [sys.executable, "-m", "tbcalc", command, *out, str(conftest.DATA / "singular-infinite-64.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    expected = {
        "tb": (2, "verdict: infinite order\nno positive multiple of the knot class bounds; tb is undefined\n"),
        "stabilize": (2, f"wrote {written}\ntb undefined before and after (knot class of infinite order)\n"),
        "homology": (0, "H1(M) = Z^24\nknot is not nullhomologous; exterior homology not reported\n"),
    }[command]
    assert (result.returncode, result.stdout, result.stderr) == (*expected, "")
