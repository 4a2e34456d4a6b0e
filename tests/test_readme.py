"""The `console` examples in README.md are what the CLI prints, and its
`python` examples evaluate to what their comments show.

Each `$ tbcalc ...` line of a console block runs through `cli.main`, in
one temporary directory per block that reaches the repository's
`fixtures/` through a symlink, so a block's later commands read what its
earlier ones wrote.  A command's stdout must be the lines that follow it
up to the next `$` line.  A command followed by `; echo "exit $?"` shows
its exit code in a last line `exit N`, which must match too.

A `python` block runs statement by statement in one namespace, in such a
directory too.  Each expression statement ends in a comment `# value`,
and `repr` of the expression must be that value.

Each `json` block of "Input format" parses, and holds the records of the
fixture it shows.  The "Fixture corpus" table is the home of the
fixtures' known answers: each row's order, `tb`, `H₁(M)` and
`H₁(M ∖ νK)` must be what `tb_heegaard` and `h1_groups` give for the
fixture's Heegaard data, and the table lists every fixture.  The
"Testing" table lists every test module.
"""

import ast
import io
import pathlib
import re
import shlex
import tokenize
from fractions import Fraction

import pytest

import conftest
from tbcalc import h1_groups, load_document, parse_document, tb_heegaard, to_heegaard


def code_blocks(language, heading):
    """The text of each ```language block in the README section."""
    section = conftest.readme_section(heading)
    return re.findall(rf"^```{language}\n(.*?)^```", section, re.MULTILINE | re.DOTALL)


BLOCKS = code_blocks("console", "Command line")
PYTHON_BLOCKS = code_blocks("python", "Library")
JSON_BLOCKS = code_blocks("json", "Input format")
ECHO_EXIT = [";", "echo", "exit $?"]


def examples(block):
    """(argv, expected stdout, expected exit code or None) per command."""
    runs = []
    for line in block.splitlines():
        if line.startswith("$ "):
            runs.append((shlex.split(line[2:], comments=True), []))
        else:
            runs[-1][1].append(line)
    for words, output in runs:
        while output and not output[-1]:
            output.pop()
        assert words[0] == "tbcalc", words
        argv, code = words[1:], None
        if argv[-len(ECHO_EXIT):] == ECHO_EXIT:
            argv = argv[: -len(ECHO_EXIT)]
            code = int(output.pop().removeprefix("exit "))
        yield argv, "".join(f"{text}\n" for text in output), code


def test_readme_has_console_examples():
    assert sum(len(list(examples(block))) for block in BLOCKS) == 8


@pytest.mark.parametrize("block", BLOCKS, ids=[block.split("\n")[0][2:] for block in BLOCKS])
def test_console_example(block, tmp_path, monkeypatch):
    (tmp_path / "fixtures").symlink_to(conftest.FIXTURES, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    for argv, stdout, code in examples(block):
        exit_code, out, _ = conftest.run_cli(*argv)
        assert out == stdout, argv
        if code is not None:
            assert exit_code == code, argv


def statements(block):
    """(statement code, the value its trailing comment shows or None) per
    top-level statement; the value is None for a statement that is not
    an expression."""
    comments = {
        token.start[0]: token.string.removeprefix("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    lines = block.splitlines()
    for node in ast.parse(block).body:
        code = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if isinstance(node, ast.Expr):
            assert node.end_lineno in comments, f"no '# value' after {code!r}"
            yield ast.unparse(node.value), comments[node.end_lineno]
        else:
            yield code, None


def test_readme_has_python_examples():
    shown = [value for block in PYTHON_BLOCKS for _, value in statements(block) if value is not None]
    assert len(PYTHON_BLOCKS) == 2 and len(shown) == 4


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[block.split("\n")[0] for block in PYTHON_BLOCKS])
def test_python_example(block, tmp_path, monkeypatch):
    (tmp_path / "fixtures").symlink_to(conftest.FIXTURES, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for code, value in statements(block):
        if value is None:
            exec(code, namespace)
        else:
            assert repr(eval(code, namespace)) == value, code


# the fixture each json block of "Input format" shows, in order
JSON_FIXTURES = ["solution-family", "heegaard-solvable"]


def test_json_examples_hold_their_fixtures():
    assert len(JSON_BLOCKS) == len(JSON_FIXTURES)
    for block, name in zip(JSON_BLOCKS, JSON_FIXTURES):
        shown = parse_document(block)
        fixture = load_document(conftest.fixture_path(name))
        assert (shown.open_book, shown.knot, shown.heegaard) == (fixture.open_book, fixture.knot, fixture.heegaard), name


def first_span(cell):
    """The text of the first code span in a table cell, or None."""
    match = re.search(r"`([^`]*)`", cell)
    return match and match.group(1)


def fixture_table():
    """fixture name -> (mode, order, tb, H1(M), H1(M minus nu K)), read off
    each row of the "Fixture corpus" table; None for an order of `—` and
    for a cell with no code span."""
    rows = {}
    for line in conftest.readme_section("Fixture corpus").splitlines():
        if line.startswith("| `"):
            name, mode, order, tb, manifold, exterior = [cell.strip() for cell in line.strip("|").split("|")]
            rows[first_span(name)] = (
                mode,
                None if order == "—" else int(order),
                first_span(tb) and Fraction(first_span(tb)),
                first_span(manifold),
                first_span(exterior),
            )
    return rows


FIXTURE_TABLE = fixture_table()


def test_fixture_table_lists_every_fixture():
    assert sorted(FIXTURE_TABLE) == conftest.FIXTURE_NAMES


@pytest.mark.parametrize("name", sorted(FIXTURE_TABLE))
def test_fixture_table_row(name):
    mode, order, tb, manifold, exterior = FIXTURE_TABLE[name]
    document = load_document(conftest.fixture_path(name))
    assert document.mode == mode
    data = document.heegaard or to_heegaard(document.open_book, document.knot)
    result = tb_heegaard(data)
    if order is None:
        assert result is None and tb is None
    else:
        assert result is not None and (result.order, result.tb) == (order, tb)
    groups = h1_groups(data)
    shown = None if groups.exterior is None else str(groups.exterior)
    assert (str(groups.manifold), shown) == (manifold, exterior)


def test_testing_table_lists_every_test_module():
    rows = [line for line in conftest.readme_section("Testing").splitlines() if line.startswith("| `")]
    listed = sorted(first_span(row.strip("|").split("|")[0]) for row in rows)
    assert listed == sorted(path.name for path in pathlib.Path(__file__).parent.glob("test_*.py"))
