"""Acceptance suite: the shipped guarantees, one test per criterion.

All comparisons are exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

import conftest
import helpers
import oracles
from tbcalc import (
    AbelianGroup,
    h1_groups,
    load_document,
    monodromy_matrix,
    tb_heegaard,
    tb_open_book,
    to_heegaard,
)
from tbcalc.lattice import minimal_order, smith_normal_form


def fixture(name: str):
    return load_document(conftest.fixture_path(name))


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
