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
"""

import ast
import io
import pathlib
import re
import shlex
import tokenize

import pytest

import conftest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```console\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
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
