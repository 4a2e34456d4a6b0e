"""What the four commands print is pinned.

For the nine fixtures and the five documents under `tests/data/` (all
but `big-certificate`, whose `tb --json` alone is 169 KB), each of `tb`,
`homology`, `stabilize --sign +1`, `stabilize --sign -1` and `convert`
runs plain, with `--json` and with `-vv`.  Exit code, stdout and stderr
must match `tests/data/golden/cli.json`.  `not-kernel-orthogonal` and
`stabilize-not-orthogonal` are the documents whose `tb` warns on stderr:
the first one's I pairs to 1 with the kernel vector (0, 1) of C, and the
second one's knot meets ker C too, so `tb after` of its stabilizations
is read off fresh Smith pivots and is not `tb before` minus the sign;
its `stabilize` warns as its `tb` does.
The commands run in a temporary directory
and write `out.json` there; `test_written_bytes.py` pins those bytes.
After an intended change of the outputs, rewrite that file with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import functools
import os
import tempfile

import pytest

import conftest

GOLDEN = conftest.DATA / "golden" / "cli.json"
DOCUMENTS = conftest.FIXTURE_NAMES + [
    "knotless-heegaard",
    "knotless-openbook",
    "long-word",
    "not-kernel-orthogonal",
    "stabilize-not-orthogonal",
]
COMMANDS = {
    "tb": ("tb",),
    "homology": ("homology",),
    "stabilize+1": ("stabilize", "--sign", "+1", "-o", "out.json"),
    "stabilize-1": ("stabilize", "--sign", "-1", "-o", "out.json"),
    "convert": ("convert", "-o", "out.json"),
}
MODES = {"plain": (), "--json": ("--json",), "-vv": ("-vv",)}
CASES = [
    (document, command, mode)
    for document in DOCUMENTS
    for command in COMMANDS
    for mode in MODES
]


def run(document, command, mode):
    argv = [*COMMANDS[command], *MODES[mode], conftest.document_path(document)]
    code, stdout, stderr = conftest.run_cli(*argv)
    return {"exit_code": code, "stdout": stdout, "stderr": stderr}


@functools.cache
def golden():
    return conftest.read_table(GOLDEN)


def test_golden_holds_every_case():
    assert sorted(golden()) == sorted(" ".join(case) for case in CASES)
    assert len(CASES) == 210


@pytest.mark.parametrize("document, command, mode", CASES)
def test_matches_golden(document, command, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(document, command, mode) == golden()[f"{document} {command} {mode}"]


def write_golden_file():
    table = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for case in CASES:
            table[" ".join(case)] = run(*case)
    conftest.write_table(GOLDEN, table)


if __name__ == "__main__":
    write_golden_file()
