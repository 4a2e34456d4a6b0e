"""Cokernel presentations of the manifold and knot exterior."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest
import helpers
import oracles
import tbcalc.lattice
from tbcalc import (
    AbelianGroup,
    HeegaardData,
    Homology,
    IntegerMatrix,
    PageKnot,
    h1_groups,
    to_heegaard,
)
from tbcalc.lattice import minimal_order, smith_normal_form


def data(relations, generators=None, knot_relations=None, dividing=0):
    matrix = IntegerMatrix.from_rows(relations)
    return HeegaardData(matrix.rows, matrix, generators, knot_relations, dividing)


class TestAbelianGroup:
    def test_canonical_form(self):
        assert AbelianGroup.from_invariant_factors((1, 6)) == AbelianGroup((6,), 0)
        assert AbelianGroup.from_invariant_factors((1, 1, 0)) == AbelianGroup((), 1)
        assert AbelianGroup.from_invariant_factors(()) == AbelianGroup((), 0)
        assert AbelianGroup.from_invariant_factors((2, 6, 0, 0)) == AbelianGroup((2, 6), 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup((1,), 0)
        with pytest.raises(ValueError):
            AbelianGroup((2, 3), 0)
        with pytest.raises(ValueError):
            AbelianGroup((), -1)

    @pytest.mark.parametrize(
        "torsion,free_rank",
        [((2.5, 5), 0), ((2.0,), True), ((2,), 1.0), ((True, 2), 0), ((2, "4"), 0), ((), False)],
    )
    def test_rejects_non_integer_counts(self, torsion, free_rank):
        with pytest.raises(TypeError, match="expected a plain integer"):
            AbelianGroup(torsion, free_rank)

    def test_str(self):
        assert str(AbelianGroup((), 0)) == "0"
        assert str(AbelianGroup((), 1)) == "Z"
        assert str(AbelianGroup((), 2)) == "Z^2"
        assert str(AbelianGroup((2,), 0)) == "Z/2"
        assert str(AbelianGroup((2, 6), 0)) == "Z/2 + Z/6"
        assert str(AbelianGroup((3,), 1)) == "Z + Z/3"


def h1_manifold(sample):
    return h1_groups(sample).manifold


def cokernel(rows):
    matrix = IntegerMatrix.from_rows(rows)
    return AbelianGroup.from_invariant_factors(oracles.smith_factors(smith_normal_form(matrix)))


class TestRecord:
    def test_frozen(self):
        rational = data([[-2]], [-1], [-1])
        assert h1_groups(rational) == Homology(AbelianGroup((2,), 0))
        assert h1_groups(data([[-2]])) == Homology(AbelianGroup((2,), 0))
        bounding = data([[-1]], [-1], [-1])
        assert h1_groups(bounding) == Homology(AbelianGroup((), 0), AbelianGroup((), 1), True)
        assert h1_groups(data([[-1]])) == Homology(AbelianGroup((), 0))


class TestH1Manifold:
    def test_frozen(self):
        assert h1_manifold(data([[-2]])) == AbelianGroup((2,), 0)
        assert h1_manifold(data([[3]])) == AbelianGroup((3,), 0)
        assert h1_manifold(data([[-1]])) == AbelianGroup((), 0)
        assert h1_manifold(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]])) == AbelianGroup((), 1)
        assert h1_manifold(data([[0, 0], [0, 0]])) == AbelianGroup((), 2)
        assert h1_manifold(data([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == AbelianGroup((), 0)

    def test_independent_of_presentation_order(self):
        left = h1_manifold(data([[2, 0], [0, 3]]))
        right = h1_manifold(data([[3, 0], [0, 2]]))
        assert left == right == AbelianGroup((6,), 0)


class TestH1Complement:
    def test_no_knot_no_exterior(self):
        groups = h1_groups(data([[2, 0], [0, 0]]))
        assert groups.manifold == AbelianGroup((2,), 1)
        assert groups.exterior is None
        assert groups.complement_lemma is None

    def test_empty_page_exterior(self):
        from tbcalc import OpenBookPresentation, PageSurface

        disk = OpenBookPresentation(PageSurface(0, 1), (), helpers.zeros(0, 0))
        converted = to_heegaard(disk, PageKnot(()))
        # no generators besides the meridian, which survives freely
        assert h1_groups(converted).exterior == AbelianGroup((), 1)

    def test_frozen(self):
        # relations [[-1]] with I = (-1): exterior of the standard unknot
        assert h1_groups(data([[-1]], [-1], [-1])).exterior == AbelianGroup((), 1)
        # mu decouples when I = 0
        assert h1_groups(data([[-2]], [0], [0])).exterior == AbelianGroup((2,), 1)
        assert h1_groups(data([[2]], [2], [1])).exterior == AbelianGroup((), 1)

    def test_zero_knot_relations_block_structure(self):
        rng = random.Random(99)
        for _ in range(50):
            sample = helpers.random_heegaard(rng, max_genus=3, bound=3)
            # A = 0 always bounds, so the exterior is reported; it does not
            # enter the exterior's relation matrix
            zeroed = HeegaardData(
                sample.genus,
                sample.relations,
                (0,) * sample.genus,
                (0,) * sample.genus,
                sample.dividing_intersections,
            )
            groups = h1_groups(zeroed)
            manifold, exterior = groups.manifold, groups.exterior
            assert exterior.torsion == manifold.torsion
            assert exterior.free_rank == manifold.free_rank + 1


class TestComplementLemma:
    def test_true_on_unknot_conversion(self):
        converted = data([[-1]], [-1], [-1])
        assert h1_groups(converted).complement_lemma is True

    def test_not_applicable_when_not_nullhomologous(self):
        assert h1_groups(data([[-2]], [-1], [-1])).complement_lemma is None
        obstructed = h1_groups(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]], [0, 2, 1], [0, 0, 0]))
        assert obstructed.complement_lemma is None
        assert obstructed.exterior is None

    def test_false_on_inconsistent_synthetic_data(self):
        # A = (2) bounds, but I = (1) is not a row combination of C = [[2]]:
        # the exterior is Z while the manifold is Z/2, so the lemma fails
        assert h1_groups(data([[2]], [2], [1])).complement_lemma is False

    def test_true_on_conversions_of_disjoint_twist_books(self):
        # books whose twists are mutually disjoint have symmetric C, and a
        # bounding knot has I = A in its row span, so the lemma must hold
        rng = random.Random(31337)
        held = 0
        for _ in range(80):
            book = helpers.random_open_book(rng, max_twists=4, max_arcs=3, bound=2)
            if any(book.twist_pairings.entries):
                zero = helpers.zeros(len(book.twists), len(book.twists))
                book = type(book)(book.page, book.twists, zero)
            knot = helpers.random_bounding_knot(rng, book, bound=2)
            converted = to_heegaard(book, knot)
            assert h1_groups(converted).complement_lemma is True
            held += 1
        assert held == 80

    def test_matches_manual_comparison_on_random_data(self):
        rng = random.Random(2718)
        seen = {True: 0, False: 0, None: 0}
        for _ in range(150):
            sample = helpers.random_heegaard(rng, max_genus=3, bound=2)
            groups = h1_groups(sample)
            seen[groups.complement_lemma] += 1
            # the same groups, each from its own Smith form
            rows = sample.relations.to_rows()
            manifold = cokernel(rows)
            assert groups.manifold == manifold
            found = minimal_order(smith_normal_form(sample.relations), sample.knot_generators)
            if found is None or found[0] != 1:
                assert groups.exterior is None and groups.complement_lemma is None
                continue
            exterior = cokernel(rows + [[-value for value in sample.knot_relations]])
            assert groups.exterior == exterior
            expected = (
                exterior.torsion == manifold.torsion
                and exterior.free_rank == manifold.free_rank + 1
            )
            assert groups.complement_lemma == expected
        assert seen[True] > 0 and seen[None] > 0


def integer_matrices(rows, cols, bound):
    return st.lists(
        st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols
    ).map(lambda entries: IntegerMatrix(rows, cols, tuple(entries)))


@st.composite
def nullhomologous_data(draw, max_genus=5, bound=3):
    """Heegaard data whose knot bounds, A = C @ E, with C of any rank up
    to max_genus, or nonsingular up to 12x12 with det C of 64 bits or more."""
    kind = draw(st.sampled_from(("square", "low rank", "large determinant")))
    genus = draw(st.integers(1, 12) if kind == "large determinant" else st.integers(0, max_genus))
    if kind == "square":
        relations = draw(integer_matrices(genus, genus, bound))
    elif kind == "low rank":
        rank = draw(st.integers(0, genus))
        relations = draw(integer_matrices(genus, rank, 2)) @ draw(integer_matrices(rank, genus, 2))
    else:
        relations = helpers.random_large_determinant(draw(st.randoms(use_true_random=False)), genus)
    vectors = st.lists(st.integers(-bound, bound), min_size=genus, max_size=genus)
    certificate, knot_relations = draw(vectors), draw(vectors)
    return HeegaardData(genus, relations, relations @ certificate, tuple(knot_relations))


class TestExteriorRoute:
    @given(nullhomologous_data())
    @settings(deadline=None, max_examples=300)
    def test_matches_factoring_the_extended_matrix(self, sample):
        # one Smith form of C and one of [C; -I^T], whatever route h1_groups takes
        rows = sample.relations.to_rows()
        groups = h1_groups(sample)
        assert groups.manifold == cokernel(rows)
        assert groups.exterior == cokernel(rows + [[-value for value in sample.knot_relations]])

    def test_factorization_count(self, monkeypatch):
        """No Smith form on any sample: a nonsingular C is read modulo
        |det C|, a singular one modulo a nonzero minor of order rank C, and
        the exterior of a bounding knot modulo a minor of its own rank."""
        calls = conftest.record_calls(monkeypatch, tbcalc.lattice, "smith_normal_form")
        rng = random.Random(4242)
        seen = {"knotless": 0, "not nullhomologous": 0, "nullhomologous": 0, "singular": 0, "nonsingular": 0}
        for index in range(240):
            if index % 2:
                kind = helpers.NULLHOMOLOGOUS_KINDS[index // 2 % len(helpers.NULLHOMOLOGOUS_KINDS)]
                sample = helpers.random_nullhomologous_heegaard(rng, kind)
            else:
                sample = helpers.random_heegaard(rng, max_genus=5, bound=3)
            if index % 3 == 0:
                sample = HeegaardData(sample.genus, sample.relations)
            if sample.knot_generators is None:
                case = "knotless"
            else:
                found = minimal_order(smith_normal_form(sample.relations), sample.knot_generators)
                bounds = found is not None and found[0] == 1
                case = "nullhomologous" if bounds else "not nullhomologous"
            seen[case] += 1
            seen["singular" if sample.relations.determinant() == 0 else "nonsingular"] += 1

            calls.clear()
            groups = h1_groups(sample)
            assert (groups.exterior is not None) == (case == "nullhomologous")
            assert calls == []
        assert min(seen.values()) >= 40, seen


class TestNonsingularChecks:
    """On a nonsingular C the certified route refuses, by the check's name,
    a diagonal that U @ C @ V is not modulo m = |det C|."""

    # det C = 5, and A = C @ (1, 1) bounds
    SAMPLE = data([[2, 1], [1, 3]], [3, 4], [1, 2])

    def test_the_sample_passes(self):
        assert h1_groups(self.SAMPLE) == Homology(AbelianGroup((5,), 0), AbelianGroup((), 1), False)

    def refuse(self, monkeypatch, rows, change):
        """h1_groups on the sample, the diagonal of the certificate of its
        matrix of rows rows replaced by change(diagonal), fails the check
        U @ M @ V == D (mod m)."""
        certify = tbcalc.lattice._modular_certificate

        def changed(matrix):
            certificate = certify(matrix)
            if matrix.rows != rows:
                return certificate
            return certificate[:-1] + (change(certificate[-1]),)

        monkeypatch.setattr(tbcalc.lattice, "_modular_certificate", changed)
        with pytest.raises(AssertionError, match=r"U @ M @ V == D \(mod m\)"):
            h1_groups(self.SAMPLE)

    def test_a_changed_diagonal_entry_is_refused(self, monkeypatch):
        # C's unit entry as 0, which would read Z/5 + Z/5
        self.refuse(monkeypatch, 2, lambda diagonal: [0] + diagonal[1:])

    def test_a_wrong_manifold_chain_is_refused(self, monkeypatch):
        # C's diagonal regrouped, the order 5 on the other row: the same
        # chain, from a diagonal that U @ C @ V is not
        self.refuse(monkeypatch, 2, lambda diagonal: diagonal[::-1])

    def test_a_wrong_exterior_is_refused(self, monkeypatch):
        # a unit of [C; -I^T] as 0, which would read Z/5 + Z
        self.refuse(monkeypatch, 3, lambda diagonal: [0] + diagonal[1:])
