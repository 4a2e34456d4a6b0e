"""Acceptance suite: the shipped guarantees, one test per criterion.

All comparisons are exact; there are no tolerances anywhere.
"""

import json
import random
from fractions import Fraction

import conftest
import helpers
import oracles
from tbcalc import (
    AbelianGroup,
    dumps_document,
    parse_document,
    h1_groups,
    load_document,
    monodromy_matrix,
    stabilize,
    tb_heegaard,
    tb_open_book,
    to_heegaard,
)
from tbcalc.cli import main
from tbcalc.lattice import minimal_order, smith_normal_form


def fixture(name: str):
    return load_document(conftest.fixture_path(name))


def test_c01_standard_unknot(capfd):
    """Standard unknot: order 1, tb = -1, E = (-1)."""
    document = fixture("standard-unknot")
    result = tb_open_book(document.open_book, document.knot)
    assert result.order == 1
    assert result.tb == Fraction(-1)
    assert result.certificate == (-1,)
    assert main(["tb", str(conftest.fixture_path("standard-unknot"))]) == 0
    out = capfd.readouterr().out
    assert "verdict: nullhomologous" in out
    assert "tb = -1" in out


def test_c02_overtwisted_unknot(capfd):
    """Overtwisted unknot: order 1, tb = +1."""
    document = fixture("overtwisted-unknot")
    result = tb_open_book(document.open_book, document.knot)
    assert result.order == 1
    assert result.tb == Fraction(1)
    assert main(["tb", str(conftest.fixture_path("overtwisted-unknot"))]) == 0
    assert "tb = 1" in capfd.readouterr().out


def test_c03_heegaard_example():
    """Surface example: bounding and obstructed knots, H1 = Z."""
    solvable = fixture("heegaard-solvable").heegaard
    order, witness = minimal_order(smith_normal_form(solvable.relations), solvable.knot_generators)
    assert order == 1
    assert solvable.relations @ witness == solvable.knot_generators
    assert tb_heegaard(solvable).order == 1

    obstructed = fixture("heegaard-obstructed").heegaard
    smith = smith_normal_form(obstructed.relations)
    assert minimal_order(smith, obstructed.knot_generators) is None
    assert tb_heegaard(obstructed) is None
    assert h1_groups(obstructed).exterior is None

    assert h1_groups(solvable).manifold == AbelianGroup((), 1)
    assert str(h1_groups(solvable).manifold) == "Z"


def test_c04_solution_family():
    """Singular system: one certificate family, one tb."""
    document = fixture("solution-family")
    matrix = monodromy_matrix(document.open_book)
    target = document.knot.arc_pairings
    result = tb_open_book(document.open_book, document.knot)
    assert result.order == 1
    assert result.kernel_orthogonal

    smith = smith_normal_form(matrix)
    kernel = [smith.V.column(j) for j in range(smith.rank, matrix.cols)]
    assert len(kernel) == 1
    base = result.certificate
    pairing = sum(e * a for e, a in zip(base, target))
    for steps in (-2, -1, 0, 1, 2):
        shifted = tuple(b + steps * k for b, k in zip(base, kernel[0]))
        assert matrix @ shifted == target
        assert sum(e * a for e, a in zip(shifted, target)) == pairing

    # exhaustive scan of the solution box: every solution pairs the same
    values = set()
    for x in range(-30, 31):
        for y in range(-30, 31):
            if matrix @ (x, y) == target:
                values.add(x * target[0] + y * target[1])
    assert values == {pairing}
    assert pairing == 1
    assert result.tb == Fraction(-1)


def test_c05_stabilization():
    """Stabilization shifts tb by -sign on both unknots."""
    for name in ("standard-unknot", "overtwisted-unknot"):
        document = fixture(name)
        before = tb_open_book(document.open_book, document.knot)
        for sign in (1, -1):
            book, knot = stabilize(document.open_book, document.knot, sign)
            after = tb_open_book(book, knot)
            assert after.order == before.order
            assert after.tb == before.tb - sign


def test_c06_monodromy_oracle():
    """Sweep pairing matrix matches expansion oracle, 500 books."""
    rng = random.Random(0xC06)
    for _ in range(500):
        book = helpers.random_open_book(rng, max_twists=8, max_arcs=4, bound=2)
        assert (
            monodromy_matrix(book).to_rows()
            == oracles.monodromy_matrix_reference(book)
        )


def test_c07_pipeline_equality():
    """Page route equals surface route on fixtures + 200 random."""
    cases = []
    for name in conftest.FIXTURE_NAMES:
        document = fixture(name)
        if document.mode == "openbook" and document.knot is not None:
            cases.append((document.open_book, document.knot))
    rng = random.Random(0xC07)
    while len(cases) < 205:
        book = helpers.random_open_book(rng, max_twists=6, max_arcs=4, bound=2)
        cases.append((book, helpers.random_knot(rng, book, bound=2)))
    for book, knot in cases:
        page = tb_open_book(book, knot)
        surface = tb_heegaard(to_heegaard(book, knot))
        if page is None:
            assert surface is None
        else:
            assert surface is not None
            assert surface.order == page.order
            assert surface.tb == page.tb


def test_c08_smith_and_solver():
    """1000 Smith decompositions + solver vs bounded search."""
    rng = random.Random(0xC08)
    for index in range(1000):
        matrix = helpers.random_matrix(
            rng, rng.randint(0, 5), rng.randint(0, 5), 9
        )
        result = smith_normal_form(matrix)
        assert (result.U @ matrix @ result.V).entries == result.D.entries
        if index < 200:
            assert abs(oracles.cofactor_det(result.U.to_rows())) == 1
            assert abs(oracles.cofactor_det(result.V.to_rows())) == 1
        else:
            assert abs(result.U.determinant()) == 1
            assert abs(result.V.determinant()) == 1
        diagonal = result.diagonal()
        assert all(d >= 0 for d in diagonal)
        for a, b in zip(diagonal, diagonal[1:]):
            assert b == 0 if a == 0 else b % a == 0

    decided = 0
    for _ in range(400):
        size = rng.randint(0, 3)
        matrix = helpers.random_matrix(rng, size, rng.randint(0, 3), 3)
        target = helpers.random_vector(rng, matrix.rows, 3)
        found = minimal_order(smith_normal_form(matrix), target)
        witness = found[1] if found and found[0] == 1 else None
        if witness is not None:
            assert matrix @ witness == target
        try:
            oracle = oracles.brute_force_solution(matrix.to_rows(), list(target))
        except oracles.SearchBudgetExceeded:
            continue
        assert (witness is None) == (oracle is None)
        decided += 1
    assert decided >= 320


def test_c09_complement_lemma_on_conversions():
    """Exterior homology gains exactly one free rank."""
    checked = 0
    for name in conftest.FIXTURE_NAMES:
        document = fixture(name)
        if document.mode != "openbook" or document.knot is None:
            continue
        groups = h1_groups(to_heegaard(document.open_book, document.knot))
        if groups.exterior is None:
            continue
        assert groups.complement_lemma is True
        checked += 1
    assert checked >= 5


def test_c10_rational_case():
    """Order 2 gives tb = -1/2; order 1 is always integral."""
    document = fixture("rational-order-two")
    result = tb_heegaard(document.heegaard)
    assert result.order == 2
    assert result.tb == Fraction(-1, 2)

    integral = 0
    for name in conftest.FIXTURE_NAMES:
        document = fixture(name)
        if document.mode == "openbook":
            if document.knot is None:
                continue
            result = tb_open_book(document.open_book, document.knot)
        elif document.heegaard.knot_generators is not None:
            result = tb_heegaard(document.heegaard)
        else:
            continue
        if result is not None and result.order == 1:
            assert result.tb.denominator == 1
            integral += 1
    assert integral >= 6

    rng = random.Random(0xC10)
    for _ in range(100):
        sample = helpers.random_heegaard(rng, max_genus=3, bound=2)
        result = tb_heegaard(sample)
        if result is not None and result.order == 1:
            assert result.tb.denominator == 1


def test_c11_cli_contract(capfd, tmp_path):
    """Round trips, exit codes 0/1/2, named validation errors."""
    for name in conftest.FIXTURE_NAMES:
        document = fixture(name)
        assert parse_document(dumps_document(document)) == document

    assert main(["tb", str(conftest.fixture_path("standard-unknot"))]) == 0
    assert main(["tb", str(conftest.fixture_path("heegaard-obstructed"))]) == 2
    assert main(["tb", str(tmp_path / "missing.json")]) == 1

    skew = tmp_path / "skew.json"
    skew.write_text(
        json.dumps(
            {
                "mode": "openbook",
                "page": {"genus": 0, "boundary": 2},
                "twists": [{"sign": 1, "arcs": [1]}],
                "twist_pairings": [[1]],
            }
        ),
        encoding="utf-8",
    )
    assert main(["homology", str(skew)]) == 1

    parity = tmp_path / "parity.json"
    parity.write_text(
        json.dumps(
            {
                "mode": "heegaard",
                "genus": 1,
                "C": [[1]],
                "A": [0],
                "I": [0],
                "dividing": 3,
            }
        ),
        encoding="utf-8",
    )
    assert main(["tb", str(parity)]) == 1

    captured = capfd.readouterr()
    assert "skew-symmetry" in captured.err
    assert "must be even" in captured.err
