"""Acceptance suite: the shipped guarantees, one test per criterion.

All comparisons are exact; there are no tolerances anywhere.
"""

import random

import conftest
import helpers
import oracles
from tbcalc import load_document, monodromy_matrix, tb_heegaard, tb_open_book, to_heegaard


def fixture(name: str):
    return load_document(conftest.fixture_path(name))


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
