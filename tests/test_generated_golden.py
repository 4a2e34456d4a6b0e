"""What `tb --json` and `homology --json` print on generated documents is pinned.

The documents come from the benchmark's seeded generator,
`perfbench/gen.py`, which does not import tbcalc: the first rounds of the
`heegaard-homology` and `ob-tb` workloads at seeds 7 and 53, 420
documents with `C` from 4×4 to 20×20, singular and nonsingular.  Each
command reads its document on stdin; its exit code and the digests of
its stdout and stderr must match `tests/data/golden/generated.json`.
After an intended change of the outputs, rewrite that file with
`PYTHONPATH=src python tests/test_generated_golden.py`.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys

import pytest

import conftest
from tbcalc.cli import main

sys.path.append(str(conftest.FIXTURES.parent / "perfbench"))
import gen  # noqa: E402

GOLDEN = conftest.DATA / "golden" / "generated.json"
# rounds per workload: 10 of 13 documents and 16 of 5
ROUNDS = {"heegaard-homology": 10, "ob-tb": 16}
SEEDS = (7, 53)
COMMANDS = (("tb", "--json"), ("homology", "--json"))
POOLS = [(workload, seed) for workload in ROUNDS for seed in SEEDS]


def digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run(text, command):
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*command, "-"])
    finally:
        sys.stdin = saved
    return {"exit_code": code, "stdout": digest(stdout.getvalue()), "stderr": digest(stderr.getvalue())}


def outputs(workload, seed):
    """Each run of the pool, keyed by workload, seed, document and command."""
    table = {}
    for case in gen.generate(workload, seed, ROUNDS[workload]):
        for command in COMMANDS:
            table[f"{workload}/{seed}/{case.name} {' '.join(command)}"] = run(case.text(), command)
    return table


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_420_documents_of_both_pools():
    documents = {key.split(" ")[0] for key in golden()}
    assert len(documents) == 420
    assert len(golden()) == 2 * len(documents)


@pytest.mark.parametrize("workload, seed", POOLS)
def test_matches_golden(workload, seed):
    table = outputs(workload, seed)
    expected = {key: value for key, value in golden().items() if key.startswith(f"{workload}/{seed}/")}
    assert sorted(table) == sorted(expected)
    changed = [key for key in table if table[key] != expected[key]]
    assert not changed, f"{len(changed)} changed outputs, first {changed[:5]}"


def write_golden_file():
    table = {}
    for workload, seed in POOLS:
        table.update(outputs(workload, seed))
    lines = [f"{json.dumps(name)}: {json.dumps(result)}" for name, result in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_golden_file()
