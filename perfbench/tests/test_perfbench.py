"""Tests of the benchmark itself: generators, checker and tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tbcalc import cli  # noqa: E402

# (fixture, order, tb) from the README's fixture table; None: infinite order
README_FIXTURES = [
    ("standard-unknot", 1, Fraction(-1)),
    ("overtwisted-unknot", 1, Fraction(1)),
    ("solution-family", 1, Fraction(-1)),
    ("disk-page", 1, Fraction(0)),
    ("stabilized-unknot", 1, Fraction(-2)),
    ("heegaard-solvable", 1, Fraction(4)),
    ("heegaard-obstructed", None, None),
    ("rational-order-two", 2, Fraction(-1, 2)),
    ("dividing-four", 1, Fraction(-2)),
]


def run_cli(argv: list[str]):
    rc, out, _, error, _, _ = worker.call(cli.main, argv)
    assert error is None
    return rc, out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload):
    first = [case.text() for case in gen.generate(workload, 7, rounds=2)]
    again = [case.text() for case in gen.generate(workload, 7, rounds=2)]
    other = [case.text() for case in gen.generate(workload, 8, rounds=2)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_warm_up_document_is_seeded_and_of_fixed_size(workload):
    first, again, other = (gen.warm_up(workload, seed) for seed in (7, 7, 8))
    assert first.text() == again.text()
    assert first.text() != other.text()
    assert first.descriptor["n"] == other.descriptor["n"] == gen.WARM_UP[workload][0]


def test_reference_kernel_is_timed_in_cpu_seconds():
    assert worker.reference_kernel() == worker.reference_kernel()
    assert 0 < worker.time_reference() < 1


@pytest.mark.parametrize("name,order,tb", README_FIXTURES)
def test_fixtures_pass_the_checker_with_the_readme_values(name, order, tb):
    path = ROOT / "fixtures" / f"{name}.json"
    doc = json.loads(path.read_text())
    checker = check.Checker()
    for command in ("tb", "homology"):
        argv = [command, str(path), "--json"]
        rc, out = run_cli(argv)
        assert checker.check_op(name, doc, argv, rc, out) is None
        if command == "tb" and order is None:
            assert rc == 2
        elif command == "tb":
            payload = json.loads(out)
            assert payload["order"] == order
            assert Fraction(payload["tb_numerator"], payload["tb_denominator"]) == tb


def _tampered(path: Path, command: str, edit) -> str | None:
    doc = json.loads(path.read_text())
    argv = [command, str(path), "--json"]
    rc, out = run_cli(argv)
    assert check.Checker().check_op("doc", doc, argv, rc, out) is None
    payload = json.loads(out)
    edit(payload)
    return check.Checker().check_op("doc", doc, argv, rc, json.dumps(payload))


def test_checker_rejects_a_tampered_certificate():
    def bump(payload):
        payload["certificate"][0] += 1

    assert _tampered(ROOT / "fixtures" / "heegaard-solvable.json", "tb", bump) is not None


def test_checker_rejects_a_tampered_order():
    def double(payload):
        payload["order"] *= 2
        payload["certificate"] = [2 * e for e in payload["certificate"]]
        payload["verdict"] = f"rationally nullhomologous of order {payload['order']}"

    # C @ (2E) == (2d) A still holds; only minimality is violated
    assert _tampered(ROOT / "fixtures" / "rational-order-two.json", "tb", double) is not None


def test_checker_rejects_a_tampered_h1():
    def add_torsion(payload):
        payload["h1_manifold"]["torsion"].append(2)

    assert _tampered(ROOT / "fixtures" / "solution-family.json", "homology", add_torsion) is not None


def test_checker_rejects_a_wrong_stabilized_document(tmp_path):
    case = gen.generate("ob-longword", 3, rounds=1)[0]
    path = tmp_path / "doc.json"
    path.write_text(case.text())
    argv = worker.op_argv(path, case.ops[1])
    rc, out = run_cli(argv)
    written = Path(argv[-1]).read_text()
    checker = check.Checker()
    assert checker.check_op("doc", case.doc, argv, rc, out, written) is None
    wrong = json.loads(written)
    wrong["knot"]["arcs"][-1] = 2
    assert checker.check_op("doc", case.doc, argv, rc, out, json.dumps(wrong)) is not None


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_documents_pass_the_checker(workload, tmp_path):
    checker = check.Checker()
    for case in gen.generate(workload, 5, rounds=1):
        path = tmp_path / f"{case.name}.json"
        path.write_text(case.text())
        for op in case.ops:
            argv = worker.op_argv(path, op)
            rc, out = run_cli(argv)
            written = Path(argv[-1]).read_text() if op[0] == "stabilize" else None
            assert checker.check_op(case.name, case.doc, argv, rc, out, written) is None
            if op[0] == "tb":
                assert (rc == 2) == (case.descriptor["expected"] == "infinite")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_prints_the_same_outputs_as_untraced(workload, tmp_path):
    tracer = tracing.Tracer()
    commands = {}
    for case in gen.generate(workload, 9, rounds=1):
        path = tmp_path / f"{case.name}.json"
        path.write_text(case.text())
        for op in case.ops:
            argv = worker.op_argv(path, op)
            plain = worker.call(cli.main, argv)
            traced = worker.traced_call(cli.main, argv, tracer, len(commands), path)
            assert traced[:2] == plain[:2]
            commands[len(commands)] = op[0]
    assert tracer.absent == []
    # uninstall put every original back
    assert not hasattr(sys.modules["tbcalc.heegaard"].minimal_order, "__wrapped__")
    spans = [json.loads(line) for line in _dump(tracer, tmp_path)]
    metrics, _ = tracing.layer_metrics(spans, commands)
    assert metrics["lattice.snf.calls"] > 0
    assert metrics["cli.self_ms"] > 0


def _dump(tracer, tmp_path):
    tracer.dump(tmp_path / "spans.jsonl")
    return (tmp_path / "spans.jsonl").read_text().splitlines()


def test_a_removed_entry_point_is_reported_absent(monkeypatch, tmp_path):
    import tbcalc.lattice

    monkeypatch.delattr(tbcalc.lattice, "kernel_basis")
    tracer = tracing.Tracer()
    path = ROOT / "fixtures" / "rational-order-two.json"
    traced = worker.traced_call(cli.main, ["tb", str(path), "--json"], tracer, 0, path)
    assert traced[0] == 0
    assert tracer.absent == ["lattice.kernel_basis"]


def test_snf_calls_per_query(tmp_path):
    """2 factorizations per finite-order tb query, 6 per homology query of
    a nullhomologous knot, of 2 distinct matrices: C, and C extended by the
    meridian row."""
    tracer = tracing.Tracer()
    path = ROOT / "fixtures" / "heegaard-solvable.json"
    worker.traced_call(cli.main, ["tb", str(path), "--json"], tracer, 0, path)
    worker.traced_call(cli.main, ["homology", str(path), "--json"], tracer, 1, path)
    spans = [json.loads(line) for line in _dump(tracer, tmp_path)]
    snf = [s for s in spans if s["name"] == "lattice.smith_normal_form"]
    assert [sum(s["op"] == op for s in snf) for op in (0, 1)] == [2, 6]
    assert len({s["input"] for s in snf if s["op"] == 1}) == 2
