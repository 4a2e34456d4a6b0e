"""Cokernel presentations of the manifold and knot exterior."""

import random

import pytest

import helpers
from tbcalc import (
    AbelianGroup,
    HeegaardData,
    Homology,
    IntegerMatrix,
    PageKnot,
    h1_groups,
    invariant_factors,
    minimal_order,
    smith_normal_form,
    to_heegaard,
)


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

    def test_str(self):
        assert str(AbelianGroup((), 0)) == "0"
        assert str(AbelianGroup((), 1)) == "Z"
        assert str(AbelianGroup((), 2)) == "Z^2"
        assert str(AbelianGroup((2,), 0)) == "Z/2"
        assert str(AbelianGroup((2, 6), 0)) == "Z/2 + Z/6"
        assert str(AbelianGroup((3,), 1)) == "Z + Z/3"

    def test_is_trivial(self):
        assert AbelianGroup((), 0).is_trivial
        assert not AbelianGroup((2,), 0).is_trivial
        assert not AbelianGroup((), 1).is_trivial


def h1_manifold(sample):
    return h1_groups(sample).manifold


def cokernel(rows):
    matrix = IntegerMatrix.from_rows(rows)
    return AbelianGroup.from_invariant_factors(invariant_factors(smith_normal_form(matrix)))


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

        disk = OpenBookPresentation(PageSurface(0, 1), (), IntegerMatrix.zeros(0, 0))
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
                zero = IntegerMatrix.zeros(book.twist_count, book.twist_count)
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
            certificate = minimal_order(smith_normal_form(sample.relations), sample.knot_generators)
            if certificate is None or certificate.order != 1:
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
