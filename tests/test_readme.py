"""The `console` examples in README.md are what the CLI prints.

Each `$ tbcalc ...` line of a console block runs through `cli.main`, in
one temporary directory per block that reaches the repository's
`fixtures/` through a symlink, so a block's later commands read what its
earlier ones wrote.  A command's stdout must be the lines that follow it
up to the next `$` line.  A command followed by `; echo "exit $?"` shows
its exit code in a last line `exit N`, which must match too.
"""

import pathlib
import re
import shlex

import pytest

import conftest
from tbcalc.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```console\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
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
def test_console_example(block, tmp_path, monkeypatch, capsys):
    (tmp_path / "fixtures").symlink_to(conftest.FIXTURES, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    for argv, stdout, code in examples(block):
        exit_code = main(argv)
        assert capsys.readouterr().out == stdout, argv
        if code is not None:
            assert exit_code == code, argv
