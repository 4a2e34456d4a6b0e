"""Monodromy pairing, tb on pages, stabilization, and the Heegaard view."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest
import helpers
import oracles
from tbcalc import (
    DehnTwist,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    load_document,
    monodromy_matrix,
    stabilize,
    tb_heegaard,
    tb_open_book,
    to_heegaard,
)

GOLDEN = conftest.DATA / "golden"
CONVERTED = sorted(path.name.split(".")[0] for path in GOLDEN.glob("*.convert.json"))


def annulus(sign: int, pairing: int = -1) -> OpenBookPresentation:
    return OpenBookPresentation(
        PageSurface(0, 2),
        (DehnTwist(sign, (pairing,)),),
        IntegerMatrix.from_rows([[0]]),
    )


def two_parallel_twists(mutual: int) -> OpenBookPresentation:
    return OpenBookPresentation(
        PageSurface(0, 2),
        (DehnTwist(1, (1,)), DehnTwist(1, (1,))),
        IntegerMatrix.from_rows([[0, mutual], [-mutual, 0]]),
    )


class TestPageSurface:
    @pytest.mark.parametrize(
        "genus,boundary,arcs", [(0, 1, 0), (0, 2, 1), (1, 1, 2), (2, 3, 6)]
    )
    def test_arc_count(self, genus, boundary, arcs):
        assert PageSurface(genus, boundary).arc_count == arcs

    def test_validation(self):
        with pytest.raises(ValueError):
            PageSurface(-1, 2)
        with pytest.raises(ValueError):
            PageSurface(0, 0)


class TestValidation:
    def test_twist_sign(self):
        with pytest.raises(ValueError):
            DehnTwist(0, (1,))
        with pytest.raises(ValueError):
            DehnTwist(2, (1,))

    def test_pairings_must_be_skew(self):
        with pytest.raises(ValueError):
            OpenBookPresentation(
                PageSurface(0, 2),
                (DehnTwist(1, (1,)), DehnTwist(1, (1,))),
                IntegerMatrix.from_rows([[0, 1], [1, 0]]),
            )
        with pytest.raises(ValueError):
            OpenBookPresentation(
                PageSurface(0, 2),
                (DehnTwist(1, (1,)),),
                IntegerMatrix.from_rows([[1]]),
            )

    def test_twist_arc_length(self):
        with pytest.raises(ValueError):
            OpenBookPresentation(
                PageSurface(0, 2),
                (DehnTwist(1, (1, 2)),),
                IntegerMatrix.from_rows([[0]]),
            )

    def test_knot_must_match_page(self):
        book = annulus(1)
        with pytest.raises(ValueError):
            tb_open_book(book, PageKnot((1, 2)))
        with pytest.raises(ValueError):
            stabilize(book, PageKnot(()), 1)
        with pytest.raises(ValueError):
            to_heegaard(book, PageKnot((1, 2)))
        with pytest.raises(ValueError):
            stabilize(book, PageKnot((1,)), 0)


class TestMonodromyMatrix:
    def test_single_twist_frozen(self):
        assert monodromy_matrix(annulus(1)).to_rows() == [[1]]
        assert monodromy_matrix(annulus(-1)).to_rows() == [[-1]]

    def test_two_twists_see_their_pairing(self):
        # the second twist acts on the image of the first, so the mutual
        # pairing enters: C = [[2 - p]] for two positive parallel twists
        assert monodromy_matrix(two_parallel_twists(1)).to_rows() == [[1]]
        assert monodromy_matrix(two_parallel_twists(0)).to_rows() == [[2]]
        assert monodromy_matrix(two_parallel_twists(-1)).to_rows() == [[3]]

    def test_outer_product_frozen(self):
        book = OpenBookPresentation(
            PageSurface(0, 3),
            (DehnTwist(1, (2, 1)),),
            IntegerMatrix.from_rows([[0]]),
        )
        assert monodromy_matrix(book).to_rows() == [[4, 2], [2, 1]]

    def test_empty_word(self):
        book = OpenBookPresentation(PageSurface(1, 1), (), IntegerMatrix.zeros(0, 0))
        assert monodromy_matrix(book).to_rows() == [[0, 0], [0, 0]]

    def test_matches_reference(self):
        rng = random.Random(20260819)
        for _ in range(150):
            book = helpers.random_open_book(rng, max_twists=6, max_arcs=3, bound=2)
            assert monodromy_matrix(book).to_rows() == oracles.monodromy_matrix_reference(book)

    @given(
        arcs=st.integers(1, 6),
        count=st.integers(100, 200),
        density=st.sampled_from([0.0, 0.01, 0.03, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=15)
    def test_matches_steps_on_long_sparse_words(self, arcs, count, density, seed):
        # the word is drawn from a seeded generator: hypothesis itself
        # cannot draw l * (n + 1) + l^2 / 2 values per example
        rng = random.Random(seed)
        page = PageSurface(0, arcs + 1)
        twists = tuple(
            DehnTwist(
                rng.choice((1, -1)),
                tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(arcs)),
            )
            for _ in range(count)
        )
        rows = [[0] * count for _ in range(count)]
        for k in range(count):
            for m in range(k):
                if rng.random() < density:
                    value = rng.choice((1, -1, 2, -2))
                    rows[k][m], rows[m][k] = value, -value
        book = OpenBookPresentation(page, twists, IntegerMatrix.from_rows(rows))
        assert monodromy_matrix(book).to_rows() == oracles.monodromy_by_steps(book)

    def test_steps_match_reference(self):
        rng = random.Random(20261017)
        for _ in range(100):
            book = helpers.random_open_book(rng, max_twists=7, max_arcs=3, bound=2)
            assert oracles.monodromy_by_steps(book) == oracles.monodromy_matrix_reference(book)

    def test_reference_guard(self):
        arcs = (1,)
        count = 21
        book = OpenBookPresentation(
            PageSurface(0, 2),
            tuple(DehnTwist(1, arcs) for _ in range(count)),
            IntegerMatrix.zeros(count, count),
        )
        with pytest.raises(ValueError):
            oracles.monodromy_matrix_reference(book)
        assert monodromy_matrix(book).rows == 1


class TestTbOpenBook:
    def test_standard_unknot(self):
        result = tb_open_book(annulus(1), PageKnot((-1,)))
        assert result.order == 1
        assert result.tb == Fraction(-1)
        assert result.certificate == (-1,)
        assert result.kernel_orthogonal

    def test_overtwisted_unknot(self):
        result = tb_open_book(annulus(-1), PageKnot((-1,)))
        assert result.order == 1
        assert result.tb == Fraction(1)
        assert result.certificate == (1,)

    def test_disk_page(self):
        book = OpenBookPresentation(PageSurface(0, 1), (), IntegerMatrix.zeros(0, 0))
        result = tb_open_book(book, PageKnot(()))
        assert result.order == 1 and result.tb == 0 and result.certificate == ()

    def test_solution_family(self):
        book = OpenBookPresentation(
            PageSurface(0, 3),
            (DehnTwist(1, (2, 1)),),
            IntegerMatrix.from_rows([[0]]),
        )
        result = tb_open_book(book, PageKnot((2, 1)))
        assert result.order == 1
        assert result.tb == Fraction(-1)
        assert result.kernel_orthogonal

    def test_infinite_order(self):
        # empty word: C = 0, nothing nonzero bounds
        book = OpenBookPresentation(PageSurface(1, 1), (), IntegerMatrix.zeros(0, 0))
        assert tb_open_book(book, PageKnot((1, 0))) is None

    def test_value_ignores_solution_choice_when_orthogonal(self):
        # all solutions of C E = A pair equally with A when A kills ker C
        book = OpenBookPresentation(
            PageSurface(0, 3),
            (DehnTwist(1, (2, 1)),),
            IntegerMatrix.from_rows([[0]]),
        )
        knot = PageKnot((2, 1))
        matrix = monodromy_matrix(book)
        result = tb_open_book(book, knot)
        base = result.certificate
        kernel = (1, -2)
        assert matrix @ kernel == (0, 0)
        for n in (-2, -1, 0, 1, 2):
            shifted = tuple(b + n * k for b, k in zip(base, kernel))
            assert matrix @ shifted == knot.arc_pairings
            pairing = sum(s * a for s, a in zip(shifted, knot.arc_pairings))
            assert Fraction(-pairing, result.order) == result.tb


class TestStabilize:
    def test_shapes(self):
        book, knot = annulus(1), PageKnot((-1,))
        stabilized, new_knot = stabilize(book, knot, -1)
        assert stabilized.page.boundary_components == 3
        assert stabilized.page.arc_count == 2
        assert stabilized.twist_count == 2
        assert stabilized.twists[-1] == DehnTwist(-1, (0, 1))
        assert stabilized.twists[0].arc_pairings == (-1, 0)
        assert new_knot.arc_pairings == (-1, 1)
        assert stabilized.twist_pairings.to_rows() == [[0, 0], [0, 0]]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tb_drops_by_sign_on_fixture_knots(self, sign):
        for book_sign in (1, -1):
            book, knot = annulus(book_sign), PageKnot((-1,))
            before = tb_open_book(book, knot)
            stabilized, new_knot = stabilize(book, knot, sign)
            after = tb_open_book(stabilized, new_knot)
            assert after.tb == before.tb - sign
            assert after.order == before.order

    def test_random_books_drop_by_sign(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(100):
            book = helpers.random_open_book(rng, max_twists=5, max_arcs=3, bound=2)
            knot = helpers.random_knot(rng, book, bound=2)
            before = tb_open_book(book, knot)
            for sign in (1, -1):
                stabilized, new_knot = stabilize(book, knot, sign)
                after = tb_open_book(stabilized, new_knot)
                if before is None:
                    assert after is None
                else:
                    assert after.order == before.order
                    assert after.tb == before.tb - sign
                    checked += 1
        assert checked >= 40

    def test_pairing_matrix_gains_diagonal_block(self):
        book = two_parallel_twists(1)
        stabilized, _ = stabilize(book, PageKnot((3,)), -1)
        assert monodromy_matrix(stabilized).to_rows() == [[1, 0], [0, -1]]


class TestToHeegaard:
    def test_frozen_conversion(self):
        data = to_heegaard(annulus(1), PageKnot((-1,)))
        assert data.genus == 1
        assert data.relations.to_rows() == [[-1]]
        assert data.knot_generators == (-1,)
        assert data.knot_relations == (-1,)
        assert data.dividing_intersections == 0

    @pytest.mark.parametrize("name", CONVERTED)
    def test_matches_written_conversion(self, name):
        # the golden files hold what `tbcalc convert` wrote, one with no knot
        document = load_document(conftest.document_path(name))
        written = load_document(GOLDEN / f"{name}.convert.json")
        assert to_heegaard(document.open_book, document.knot) == written.heegaard

    def test_pipeline_equality_random(self):
        rng = random.Random(4242)
        agreements = 0
        for _ in range(120):
            book = helpers.random_open_book(rng, max_twists=5, max_arcs=3, bound=2)
            knot = helpers.random_knot(rng, book, bound=2)
            via_page = tb_open_book(book, knot)
            via_surface = tb_heegaard(to_heegaard(book, knot))
            if via_page is None:
                assert via_surface is None
            else:
                assert via_surface is not None
                assert via_surface.order == via_page.order
                assert via_surface.tb == via_page.tb
                agreements += 1
        assert agreements >= 30
