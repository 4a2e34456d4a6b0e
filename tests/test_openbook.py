"""Monodromy pairing, tb on pages, stabilization, and the Heegaard view."""

import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

import conftest
import helpers
import oracles
from tbcalc import (
    DehnTwist,
    HeegaardData,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    h1_groups,
    load_document,
    monodromy_matrix,
    stabilize,
    tb_heegaard,
    tb_open_book,
    to_heegaard,
)
from tbcalc.openbook import _skew_fault, _tb_across_stabilization, _view

GOLDEN = conftest.DATA / "golden"
CONVERTED = sorted(path.name.split(".")[0] for path in GOLDEN.glob("*.convert.json"))
OPEN_BOOK_FIXTURES = [
    name
    for name in conftest.FIXTURE_NAMES
    if load_document(conftest.fixture_path(name)).open_book is not None
]


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

    @pytest.mark.parametrize("genus, boundary", [(True, 1), (0, True), (0.0, 1), (0, 2.0)])
    def test_counts_must_be_plain_ints(self, genus, boundary):
        with pytest.raises(TypeError):
            PageSurface(genus, boundary)


@st.composite
def skew_blocks_with_faults(draw):
    """A skew block of size 0 to 12, sparse or dense, as (count, entries),
    then given 0 to 2 faults: on the diagonal, above it or below it."""
    count = draw(st.integers(0, 12))
    density = draw(st.sampled_from((0.15, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[0] * count for _ in range(count)]
    for k in range(count):
        for m in range(k):
            if rng.random() < density:
                rows[k][m] = rng.randint(-3, 3)
                rows[m][k] = -rows[k][m]
    kinds = ["diagonal"] * (count >= 1) + ["above", "below"] * (count >= 2)
    faults = draw(st.lists(st.sampled_from(kinds), max_size=2)) if kinds else []
    for kind in faults:
        if kind == "diagonal":
            row = col = rng.randrange(count)
        else:
            row, col = sorted(rng.sample(range(count), 2), reverse=kind == "below")
        rows[row][col] += rng.choice((-2, -1, 1, 2))
    return count, [value for row in rows for value in row]


class TestValidation:
    def test_twist_sign(self):
        with pytest.raises(ValueError):
            DehnTwist(0, (1,))
        with pytest.raises(ValueError):
            DehnTwist(2, (1,))

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, "1"])
    def test_twist_sign_must_be_a_plain_int(self, sign):
        with pytest.raises(TypeError):
            DehnTwist(sign, (1,))

    @pytest.mark.parametrize("entry", [True, 1.5, "1"])
    def test_arc_pairings_must_be_plain_ints(self, entry):
        # the first bad entry is the one reported, not the later 2.5
        bad = (0, entry, 2.5)
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            DehnTwist(1, bad)
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            PageKnot(bad)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_stabilization_sign_must_be_a_plain_int(self, sign):
        # `True in (1, -1)` holds, so a bool used to pass and was written
        # as "sign": true, which the parser rejects
        document = load_document(conftest.fixture_path("standard-unknot"))
        with pytest.raises(TypeError):
            stabilize(document.open_book, document.knot, sign)

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

    @given(skew_blocks_with_faults())
    @settings(deadline=None, max_examples=300)
    def test_skew_check_names_the_column_scans_fault(self, block):
        """_skew_fault names the column scan's first fault, and the
        constructor accepts exactly the blocks the scan finds skew."""
        count, entries = block
        fault = oracles.skew_fault(entries, count)
        assert _skew_fault(tuple(entries), count) == fault
        twists = (DehnTwist(1, ()),) * count
        matrix = IntegerMatrix(count, count, tuple(entries))
        if fault is None:
            OpenBookPresentation(PageSurface(0, 1), twists, matrix)
            return
        message = "diagonal must vanish" if fault[0] == fault[1] else "must be skew-symmetric"
        with pytest.raises(ValueError, match=message):
            OpenBookPresentation(PageSurface(0, 1), twists, matrix)

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
        book = OpenBookPresentation(PageSurface(1, 1), (), helpers.zeros(0, 0))
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
            helpers.zeros(count, count),
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
        book = OpenBookPresentation(PageSurface(0, 1), (), helpers.zeros(0, 0))
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
        book = OpenBookPresentation(PageSurface(1, 1), (), helpers.zeros(0, 0))
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


@st.composite
def books_with_knots(draw):
    """An open book of up to 4 cut arcs (0 included) and up to 8 twists
    (0 included), with a knot on its page."""
    arcs = draw(st.integers(0, 4))
    genus = draw(st.integers(0, arcs // 2))
    entries = st.integers(-3, 3)
    vector = st.lists(entries, min_size=arcs, max_size=arcs).map(tuple)
    count = draw(st.integers(0, 8))
    twists = [DehnTwist(draw(st.sampled_from((1, -1))), draw(vector)) for _ in range(count)]
    pairings = [[0] * count for _ in range(count)]
    for k in range(count):
        for m in range(k):
            pairings[k][m] = draw(entries)
            pairings[m][k] = -pairings[k][m]
    book = OpenBookPresentation(
        PageSurface(genus, arcs - 2 * genus + 1), twists, IntegerMatrix.from_rows(pairings)
    )
    return book, PageKnot(draw(vector))


def realizable_book_and_knot(rng, bounding):
    """A realizable open book with a random knot, or with a bounding one."""
    book = helpers.random_realizable_open_book(rng)
    if bounding:
        return book, helpers.random_bounding_knot(rng, book)
    return book, helpers.random_knot(rng, book)


@st.composite
def realizable_books_with_knots(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return realizable_book_and_knot(rng, draw(st.booleans()))


def any_books_with_knots():
    return st.one_of(books_with_knots(), realizable_books_with_knots())


# 0 cut arcs and 0 twists
DISK_PAGE_EMPTY_WORD = (
    OpenBookPresentation(PageSurface(0, 1), (), helpers.zeros(0, 0)),
    PageKnot(()),
)


class TestStabilize:
    def test_shapes(self):
        book, knot = annulus(1), PageKnot((-1,))
        stabilized, new_knot = stabilize(book, knot, -1)
        assert stabilized.page.boundary_components == 3
        assert stabilized.page.arc_count == 2
        assert len(stabilized.twists) == 2
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

    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.sampled_from((1, -1)),
    )
    # knots that meet ker C, so tb after is read off fresh pivots:
    # tb before 77, after 412 (+1) and 414 (-1); then -90, -55 and -53
    @example(4923, False, True, 1)
    @example(4923, False, True, -1)
    @example(12649, False, True, 1)
    @example(12649, False, True, -1)
    @example(82, False, True, 1)
    @example(305, False, True, -1)
    @settings(deadline=None, max_examples=200)
    def test_tb_across_stabilization_is_the_tb_of_the_stabilized_book(
        self, seed, realizable, bounding, sign
    ):
        """tb before and after, read off C alone, are tb_open_book of the
        book and of the stabilized book swept afresh: the same order, tb
        and kernel verdict, whether the knot meets ker C or not, and a
        certificate that diag(C, sign) maps to order * (A, 1)."""
        rng = random.Random(seed)
        if realizable:
            book = helpers.random_realizable_open_book(rng)
        else:
            book = helpers.random_open_book(rng, max_twists=5, max_arcs=7)
        knot = (helpers.random_bounding_knot if bounding else helpers.random_knot)(rng, book)
        before, after = _tb_across_stabilization(_view(book, knot), sign)
        assert before == tb_open_book(book, knot)
        stabilized, new_knot = stabilize(book, knot, sign)
        fresh = tb_open_book(stabilized, new_knot)
        if fresh is None:
            assert (before, after) == (None, None)
            return
        assert (after.order, after.tb, after.kernel_orthogonal) == (
            fresh.order,
            fresh.tb,
            fresh.kernel_orthogonal,
        )
        scaled = tuple([after.order * a for a in new_knot.arc_pairings])
        assert monodromy_matrix(stabilized) @ after.certificate == scaled

    def test_pairing_matrix_gains_diagonal_block(self):
        book = two_parallel_twists(1)
        stabilized, _ = stabilize(book, PageKnot((3,)), -1)
        assert monodromy_matrix(stabilized).to_rows() == [[1, 0], [0, -1]]

    @given(any_books_with_knots(), st.sampled_from((1, -1)))
    @example(DISK_PAGE_EMPTY_WORD, 1)
    @example(DISK_PAGE_EMPTY_WORD, -1)
    @example((two_parallel_twists(2), PageKnot((3,))), -1)
    @settings(deadline=None, max_examples=300)
    def test_stabilization_law(self, book_and_knot, sign):
        """The old pairing block gains a zero row and column, C becomes
        diag(C, sign) and the knot runs once over the new arc."""
        book, knot = book_and_knot
        stabilized, new_knot = stabilize(book, knot, sign)
        count = len(book.twists)
        assert stabilized.twist_pairings.to_rows() == [
            row + [0] for row in book.twist_pairings.to_rows()
        ] + [[0] * (count + 1)]
        before = monodromy_matrix(book).to_rows()
        arcs = len(before)
        assert monodromy_matrix(stabilized).to_rows() == [row + [0] for row in before] + [
            [0] * arcs + [sign]
        ]
        assert new_knot.arc_pairings == knot.arc_pairings + (1,)

    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from((1, -1)), min_size=1, max_size=4))
    @example(7, [1, 1, 1, 1])
    @example(7, [-1, -1, -1, -1])
    @settings(deadline=None, max_examples=200)
    def test_derived_records_match_checked_ones(self, seed, signs):
        """stabilize derives the old twists, the padded block and the book
        without their checks; each is the record that the checked
        constructors build from the same fields."""
        rng = random.Random(seed)
        book = helpers.random_open_book(rng)
        knot = helpers.random_knot(rng, book)
        for sign in signs:
            book, knot = stabilize(book, knot, sign)
            block = book.twist_pairings
            rebuilt = OpenBookPresentation(
                PageSurface(book.page.genus, book.page.boundary_components),
                tuple([DehnTwist(twist.sign, twist.arc_pairings) for twist in book.twists]),
                IntegerMatrix(block.rows, block.cols, block.entries),
            )
            pairs = [
                (book, rebuilt),
                (block, rebuilt.twist_pairings),
                (knot, PageKnot(knot.arc_pairings)),
                *zip(book.twists, rebuilt.twists),
            ]
            for derived, checked in pairs:
                assert type(derived) is type(checked)
                assert derived == checked
                assert hash(derived) == hash(checked)
                assert repr(derived) == repr(checked)

    @staticmethod
    def check_chain(book, knot, signs):
        """Stabilizing once per sign keeps the order and H1, exterior
        included, and lowers tb by the sum of the signs whenever the knot
        is orthogonal to ker C.  Otherwise tb depends on the certificate,
        and the new +-1 entries change the Smith pivots that pick it."""
        before = tb_open_book(book, knot)
        homology = h1_groups(to_heegaard(book, knot))
        for sign in signs:
            book, knot = stabilize(book, knot, sign)
        after = tb_open_book(book, knot)
        assert after.order == before.order
        assert after.kernel_orthogonal == before.kernel_orthogonal
        assert h1_groups(to_heegaard(book, knot)) == homology
        if before.kernel_orthogonal:
            assert after.tb == before.tb - sum(signs)

    @pytest.mark.parametrize("name", OPEN_BOOK_FIXTURES)
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (-1, 1, -1, -1)])
    def test_chain_law_on_fixtures(self, name, signs):
        document = load_document(conftest.fixture_path(name))
        self.check_chain(document.open_book, document.knot, signs)

    @given(any_books_with_knots(), st.lists(st.sampled_from((1, -1)), min_size=1, max_size=4))
    @example(DISK_PAGE_EMPTY_WORD, [1, -1, 1, 1])
    @settings(deadline=None, max_examples=150)
    def test_chain_law(self, book_and_knot, signs):
        book, knot = book_and_knot
        assume(tb_open_book(book, knot) is not None)
        self.check_chain(book, knot, signs)


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
        # to_heegaard's -C factors with the same D and V as C and U's first
        # rank rows negated, so the surface route finds exactly -E, singular
        # C included
        rng = random.Random(4242)
        agreements = singular = 0
        for index in range(240):
            book = helpers.random_open_book(rng, max_twists=5, max_arcs=3, bound=2)
            if index % 2:
                knot = helpers.random_bounding_knot(rng, book, bound=2)
            else:
                knot = helpers.random_knot(rng, book, bound=2)
            via_page = tb_open_book(book, knot)
            via_surface = tb_heegaard(to_heegaard(book, knot))
            if via_page is None:
                assert via_surface is None
            else:
                assert via_surface is not None
                assert via_surface.order == via_page.order
                assert via_surface.tb == via_page.tb
                assert via_surface.certificate == tuple([-e for e in via_page.certificate])
                assert via_surface.kernel_orthogonal == via_page.kernel_orthogonal
                agreements += 1
                singular += monodromy_matrix(book).determinant() == 0
        assert agreements >= 30
        assert singular >= 30

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    # singular C with a bounding knot, and with a random one that bounds
    @example(10, False, True)
    @example(4, True, False)
    @settings(deadline=None, max_examples=200)
    def test_view_and_doubled_page_give_the_same_homology(self, seed, realizable, bounding):
        """The CLI reads homology off the view (C, A, -A); to_heegaard is
        that view negated, (-C, A, A).  The exterior relations [C; A^T]
        are -[-C; -A^T], so both present the same groups, singular C
        included."""
        rng = random.Random(seed)
        draw = helpers.random_realizable_open_book if realizable else helpers.random_open_book
        book = draw(rng)
        knot = (helpers.random_bounding_knot if bounding else helpers.random_knot)(rng, book)
        view, doubled = _view(book, knot), to_heegaard(book, knot)
        matrix, pairings = monodromy_matrix(book), knot.arc_pairings
        assert view == HeegaardData(len(pairings), matrix, pairings, tuple([-a for a in pairings]))
        assert doubled == HeegaardData(len(pairings), -matrix, pairings, pairings)
        assert h1_groups(view) == h1_groups(doubled)


class TestChangeOfBasis:
    """Mapping every twist's arc vector and the knot's vector by Q^T, for
    a unimodular Q, is a change of basis of the arcs' pairing lattice:
    C becomes Q^T @ C @ Q, and what C and the knot present is unchanged."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_monodromy_is_conjugated_and_invariants_are_unchanged(self, seed, realizable):
        rng = random.Random(seed)
        draw = helpers.random_realizable_open_book if realizable else helpers.random_open_book
        book = draw(rng, max_twists=8, max_arcs=6, bound=2)
        if rng.random() < 0.5:
            knot = helpers.random_bounding_knot(rng, book)
        else:
            knot = helpers.random_knot(rng, book)
        q = helpers.random_unimodular(rng, book.page.arc_count)
        q_t = helpers.transpose(q)
        changed = OpenBookPresentation(
            book.page,
            [DehnTwist(twist.sign, q_t @ twist.arc_pairings) for twist in book.twists],
            book.twist_pairings,
        )
        changed_knot = PageKnot(q_t @ knot.arc_pairings)
        assert monodromy_matrix(changed) == q_t @ monodromy_matrix(book) @ q
        assert h1_groups(to_heegaard(changed, changed_knot)) == h1_groups(to_heegaard(book, knot))
        before, after = tb_open_book(book, knot), tb_open_book(changed, changed_knot)
        assert (before is None) == (after is None)
        if before is None:
            return
        assert after.order == before.order
        assert after.kernel_orthogonal == before.kernel_orthogonal
        if before.kernel_orthogonal:
            assert after.tb == before.tb


def stabilize_along(book, knot, path, sign):
    """Stabilize a realizable book along a path in its page.

    The page gains a boundary component and so one cut arc, which only
    the new twist crosses, once; elsewhere the new twist follows path,
    so its arc pairings are path + (1,).  The knot misses the new arc.
    """
    page = PageSurface(book.page.genus, book.page.boundary_components + 1)
    rows = [[*twist.arc_pairings, 0] for twist in book.twists] + [[*path, 1]]
    signs = [twist.sign for twist in book.twists] + [sign]
    new_book = helpers.realizable_open_book(page, signs, IntegerMatrix.from_rows(rows))
    return new_book, PageKnot(knot.arc_pairings + (0,))


class TestRealizableBooks:
    """Books of genus 0 to 2 whose twist pairings the page realizes.

    With J the page's intersection form, C satisfies the variation
    identity C - C^T = C^T @ J @ C, so C x = 0 gives C^T x = 0 and a
    vector in ker C pairs to zero with every C @ E.  Hence every
    finite-order knot is kernel-orthogonal, and for a nullhomologous
    knot the exterior is H1(M) plus one free summand.  On a planar page
    J is zero and C is symmetric.
    """

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_variation_identity(self, seed, bounding):
        book, _ = realizable_book_and_knot(random.Random(seed), bounding)
        matrix = monodromy_matrix(book)
        size, transposed = matrix.rows, helpers.transpose(matrix)
        variation = [a - b for a, b in zip(matrix.entries, transposed.entries)]
        form = helpers.page_intersection_form(book.page)
        assert IntegerMatrix(size, size, tuple(variation)) == transposed @ form @ matrix

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_finite_order_knots_are_kernel_orthogonal(self, seed, bounding):
        result = tb_open_book(*realizable_book_and_knot(random.Random(seed), bounding))
        if bounding:
            assert result is not None and result.order == 1
        if result is not None:
            assert result.kernel_orthogonal

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_nullhomologous_knots_satisfy_the_complement_lemma(self, seed, bounding):
        book, knot = realizable_book_and_knot(random.Random(seed), bounding)
        result = tb_open_book(book, knot)
        lemma = h1_groups(to_heegaard(book, knot)).complement_lemma
        if result is not None and result.order == 1:
            assert lemma is True
        else:
            assert lemma is None

    def test_draws_reach_finite_order_at_positive_genus(self):
        finite = 0
        for seed in range(300):
            book, knot = realizable_book_and_knot(random.Random(seed), False)
            finite += book.page.genus > 0 and tb_open_book(book, knot) is not None
        assert finite >= 100

    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3),
    )
    @settings(deadline=None, max_examples=200)
    def test_stabilization_along_a_path_changes_nothing(self, seed, bounding, signs):
        """H1, exterior included, and the order, tb and kernel verdict
        stay as they are; a knot of infinite order stays so."""
        rng = random.Random(seed)
        book, knot = realizable_book_and_knot(rng, bounding)
        before = tb_open_book(book, knot)
        homology = h1_groups(to_heegaard(book, knot))
        for sign in signs:
            path = helpers.random_vector(rng, book.page.arc_count, 2)
            book, knot = stabilize_along(book, knot, path, sign)
        after = tb_open_book(book, knot)
        assert h1_groups(to_heegaard(book, knot)) == homology
        if before is None:
            assert after is None
        else:
            assert (after.order, after.tb, after.kernel_orthogonal) == (
                before.order,
                before.tb,
                before.kernel_orthogonal,
            )
