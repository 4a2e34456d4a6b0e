"""What `tb --json` and `homology --json` print on generated documents is pinned.

The documents come from the benchmark's seeded generator,
`perfbench/gen.py`, which does not import tbcalc: the first rounds of the
`heegaard-homology` and `ob-tb` workloads at seeds 7 and 53, 420
documents with `C` from 4×4 to 20×20, singular and nonsingular.  Each
command reads its document on stdin; its exit code and the digests of
its stdout and stderr must match `tests/data/golden/generated.json`.
After an intended change of the outputs, rewrite that file with
`PYTHONPATH=src python tests/test_generated_golden.py`.

Each `tb` run is also checked by `perfbench/oracle.py`, which shares no
code with tbcalc: exit 2 exactly for a knot of infinite order, and
otherwise the printed order, the certificate `C @ E == d * A`,
`tb = -dividing/2 + <E, I>/d` and the kernel verdict, `I` orthogonal to
`ker C` exactly when `rank [C; I] == rank C`, with an open book's `C`
swept afresh.
"""

import functools
import hashlib
import json
import sys
from fractions import Fraction

import pytest

import conftest

sys.path.append(str(conftest.FIXTURES.parent / "perfbench"))
import gen  # noqa: E402
import oracle  # noqa: E402

GOLDEN = conftest.DATA / "golden" / "generated.json"
# rounds per workload: 10 of 13 documents and 16 of 5
ROUNDS = {"heegaard-homology": 10, "ob-tb": 16}
SEEDS = (7, 53)
COMMANDS = (("tb", "--json"), ("homology", "--json"))
POOLS = [(workload, seed) for workload in ROUNDS for seed in SEEDS]


def digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@functools.cache
def outputs(workload, seed):
    """Each run of the pool, keyed by workload, seed, document and command,
    and each document with the exit code and stdout of its tb run."""
    table, tb_runs = {}, []
    for case in gen.generate(workload, seed, ROUNDS[workload]):
        for command in COMMANDS:
            code, stdout, stderr = conftest.run_cli(*command, "-", stdin=case.text())
            table[f"{workload}/{seed}/{case.name} {' '.join(command)}"] = {
                "exit_code": code,
                "stdout": digest(stdout),
                "stderr": digest(stderr),
            }
            if command[0] == "tb":
                tb_runs.append((case, code, stdout))
    return table, tb_runs


def check_tb(case, code, stdout):
    """One tb --json run against perfbench/oracle."""
    doc = case.doc
    if doc["mode"] == "openbook":
        twists, a = doc["twists"], doc["knot"]["arcs"]
        signs, arcs = [t["sign"] for t in twists], [t["arcs"] for t in twists]
        c = oracle.monodromy(len(a), signs, arcs, doc["twist_pairings"])
        pairing, dividing = [-x for x in a], 0
    else:
        c, a, pairing, dividing = doc["C"], doc["A"], doc["I"], doc["dividing"]
    order = oracle.order(c, a)
    assert code == (2 if order is None else 0), case.name
    if order is None:
        return
    payload = json.loads(stdout)
    d, certificate = payload["order"], payload["certificate"]
    assert d == order, case.name
    assert oracle.matvec(c, certificate) == [d * x for x in a], case.name
    tb = Fraction(-dividing, 2) + Fraction(oracle.dot(certificate, pairing), d)
    assert (payload["tb_numerator"], payload["tb_denominator"]) == (tb.numerator, tb.denominator), case.name
    # I is orthogonal to ker C exactly when it lies in the rational row space of C
    orthogonal = oracle.rank(oracle.with_row(c, pairing)) == oracle.rank(c)
    assert payload["kernel_orthogonal"] == orthogonal, case.name


@functools.cache
def golden():
    return conftest.read_table(GOLDEN)


def test_golden_covers_420_documents_of_both_pools():
    documents = {key.split(" ")[0] for key in golden()}
    assert len(documents) == 420
    assert len(golden()) == 2 * len(documents)


@pytest.mark.parametrize("workload, seed", POOLS)
def test_matches_golden(workload, seed):
    table, _ = outputs(workload, seed)
    expected = {key: value for key, value in golden().items() if key.startswith(f"{workload}/{seed}/")}
    assert sorted(table) == sorted(expected)
    changed = [key for key in table if table[key] != expected[key]]
    assert not changed, f"{len(changed)} changed outputs, first {changed[:5]}"


@pytest.mark.parametrize("workload, seed", POOLS)
def test_tb_runs_pass_the_independent_checks(workload, seed):
    # the oracle's order of a singular C comes from sympy's invariant factors
    pytest.importorskip("sympy")
    for case, code, stdout in outputs(workload, seed)[1]:
        check_tb(case, code, stdout)


def write_golden_file():
    table = {}
    for workload, seed in POOLS:
        table.update(outputs(workload, seed)[0])
    conftest.write_table(GOLDEN, table)


if __name__ == "__main__":
    write_golden_file()
