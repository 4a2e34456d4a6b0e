"""Surface-side tb: dividing-set term, orders, and result invariants."""

import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import helpers
import tbcalc.lattice
from tbcalc import HeegaardData, IntegerMatrix, TbResult, h1_groups, tb_heegaard

S1XS2 = IntegerMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 1]])


def data(relations, generators, knot_relations, dividing=0):
    matrix = IntegerMatrix.from_rows(relations)
    return HeegaardData(matrix.rows, matrix, tuple(generators), tuple(knot_relations), dividing)


class TestValidation:
    def test_relations_must_match_genus(self):
        with pytest.raises(ValueError):
            HeegaardData(2, IntegerMatrix.from_rows([[1]]), (0, 0), (0, 0), 0)
        with pytest.raises(ValueError):
            HeegaardData(1, IntegerMatrix.from_rows([[1, 0]]), (0,), (0,), 0)

    def test_vector_lengths(self):
        with pytest.raises(ValueError):
            data([[1]], [1, 2], [1])
        with pytest.raises(ValueError):
            data([[1]], [1], [1, 2])

    def test_dividing_count(self):
        with pytest.raises(ValueError):
            data([[1]], [0], [0], dividing=-2)
        with pytest.raises(ValueError):
            data([[1]], [0], [0], dividing=3)

    @pytest.mark.parametrize("dividing", [False, True, 2.0, "2"])
    def test_dividing_count_must_be_a_plain_int(self, dividing):
        with pytest.raises(TypeError):
            data([[1]], [0], [0], dividing=dividing)
        with pytest.raises(TypeError):
            HeegaardData(1, IntegerMatrix.from_rows([[1]]), dividing_intersections=dividing)

    @pytest.mark.parametrize("entry", [True, 1.5, "1"])
    def test_knot_vectors_must_hold_plain_ints(self, entry):
        # the first bad entry is the one reported, not the later 2.5
        relations = helpers.zeros(3, 3)
        bad = (0, entry, 2.5)
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            HeegaardData(3, relations, bad, (0, 0, 0))
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            HeegaardData(3, relations, (0, 0, 0), bad)

    def test_negative_genus(self):
        with pytest.raises(ValueError):
            HeegaardData(-1, helpers.zeros(0, 0), (), (), 0)

    @pytest.mark.parametrize("genus", [True, 1.0])
    def test_genus_must_be_a_plain_int(self, genus):
        with pytest.raises(TypeError):
            HeegaardData(genus, IntegerMatrix.from_rows([[1]]))

    def test_knot_block_is_all_or_nothing(self):
        relations = IntegerMatrix.from_rows([[1]])
        with pytest.raises(ValueError):
            HeegaardData(1, relations, (1,))
        with pytest.raises(ValueError):
            HeegaardData(1, relations, None, (1,))
        with pytest.raises(ValueError):
            HeegaardData(1, relations, dividing_intersections=2)
        knotless = HeegaardData(1, relations)
        assert (knotless.knot_generators, knotless.knot_relations) == (None, None)
        assert knotless.dividing_intersections == 0


class TestTbResult:
    def test_invariants(self):
        TbResult(order=2, tb=Fraction(-1, 2), certificate=(1,), kernel_orthogonal=True)
        with pytest.raises(ValueError):
            TbResult(order=0, tb=Fraction(0), certificate=(), kernel_orthogonal=True)
        with pytest.raises(ValueError):
            TbResult(order=2, tb=Fraction(1, 3), certificate=(1,), kernel_orthogonal=True)

    def test_numerator_denominator(self):
        result = TbResult(order=2, tb=Fraction(-1, 2), certificate=(1,), kernel_orthogonal=True)
        assert result.tb.numerator == -1
        assert result.tb.denominator == 2


class TestNullhomologousCheck:
    """Nullhomology is order 1: the certificate then solves C @ E == A."""

    def test_frozen(self):
        bounding = tb_heegaard(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]], [2, 1, 1], [1, 1, 2]))
        assert (bounding.order, bounding.certificate) == (1, (2, 0, 1))
        assert tb_heegaard(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]], [0, 2, 1], [0, 0, 0])) is None
        assert tb_heegaard(data([[-2]], [-1], [-1])).order == 2


class TestTbHeegaard:
    def test_integral_fixture(self):
        result = tb_heegaard(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]], [2, 1, 1], [1, 1, 2]))
        assert result.order == 1
        assert result.tb == Fraction(4)
        assert result.certificate == (2, 0, 1)

    def test_no_knot_no_tb(self):
        with pytest.raises(ValueError):
            tb_heegaard(HeegaardData(2, IntegerMatrix.from_rows([[2, 0], [0, 0]])))

    def test_rational_fixture(self):
        result = tb_heegaard(data([[-2]], [-1], [-1]))
        assert result.order == 2
        assert result.tb == Fraction(-1, 2)
        assert result.certificate == (1,)
        assert result.kernel_orthogonal

    def test_infinite_order(self):
        assert tb_heegaard(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]], [0, 2, 1], [0, 0, 0])) is None

    def test_dividing_term(self):
        result = tb_heegaard(data([[1]], [0], [0], dividing=4))
        assert result.tb == Fraction(-2)

    def test_dividing_shift(self):
        base = tb_heegaard(data([[-2]], [-1], [-1], dividing=0))
        for steps in (1, 2, 3):
            shifted = tb_heegaard(data([[-2]], [-1], [-1], dividing=2 * steps))
            assert shifted.tb == base.tb - steps
            assert shifted.order == base.order

    def test_kernel_orthogonality_flag(self):
        # ker C = <(1)> and I pairs to 1 with it: value depends on E choice
        result = tb_heegaard(data([[0]], [0], [1]))
        assert result.order == 1
        assert not result.kernel_orthogonal
        orthogonal = tb_heegaard(data([[0]], [0], [0]))
        assert orthogonal.kernel_orthogonal

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda order, solution: (order, (solution[0] + 1,) + solution[1:]),
            lambda order, solution: (order + 1, solution),
            lambda order, solution: (2 * order, solution),
        ],
        ids=["E", "d + 1", "2d"],
    )
    def test_a_wrong_certificate_fails_its_check(self, monkeypatch, wrong):
        """order_certificate checks C @ E == d * A before tb_heegaard uses E and d."""
        found = tbcalc.lattice.minimal_order

        def wrong_order(smith, target):
            return wrong(*found(smith, target))

        monkeypatch.setattr(tbcalc.lattice, "minimal_order", wrong_order)
        with pytest.raises(AssertionError, match="C @ E == d \\* A"):
            tb_heegaard(data([[1, 1, 0], [0, 0, 1], [0, 0, 1]], [2, 1, 1], [1, 1, 2]))
        with pytest.raises(AssertionError, match="C @ E == d \\* A"):
            tb_heegaard(data([[-2]], [-1], [-1]))

    def test_random_consistency(self):
        rng = random.Random(5150)
        finite = 0
        for _ in range(200):
            sample = helpers.random_heegaard(rng, max_genus=3, bound=2)
            result = tb_heegaard(sample)
            # the homology record reads nullhomology off the same Smith form
            nullhomologous = result is not None and result.order == 1
            assert (h1_groups(sample).exterior is not None) == nullhomologous
            if result is None:
                continue
            finite += 1
            scaled = tuple(result.order * a for a in sample.knot_generators)
            assert sample.relations @ result.certificate == scaled
            pairing = sum(e * i for e, i in zip(result.certificate, sample.knot_relations))
            assert result.tb == Fraction(-sample.dividing_intersections, 2) + Fraction(
                pairing, result.order
            )
            # the dividing count is even, so the denominator comes from d alone
            assert result.order % result.tb.denominator == 0
        assert finite >= 60


class TestChangeOfBasis:
    """A unimodular change of basis on both sides presents the same
    manifold and knot: C -> Q @ C @ P, A -> Q @ A and I -> P^T @ I."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("any",) + helpers.NULLHOMOLOGOUS_KINDS))
    @settings(deadline=None, max_examples=200)
    def test_invariants_are_unchanged(self, seed, kind):
        rng = random.Random(seed)
        if kind == "any":
            sample = helpers.random_heegaard(rng, max_genus=6, bound=3)
        else:
            sample = helpers.random_nullhomologous_heegaard(rng, kind, max_genus=6)
        q = helpers.random_unimodular(rng, sample.genus)
        p = helpers.random_unimodular(rng, sample.genus)
        changed = HeegaardData(
            sample.genus,
            q @ sample.relations @ p,
            q @ sample.knot_generators,
            helpers.transpose(p) @ sample.knot_relations,
            sample.dividing_intersections,
        )
        # H1 of the manifold and, for a nullhomologous knot, of the exterior
        assert h1_groups(changed) == h1_groups(sample)
        before, after = tb_heegaard(sample), tb_heegaard(changed)
        assert (before is None) == (after is None)
        if before is None:
            return
        assert after.order == before.order
        # ker C maps to P^-1 ker C, and <P^-1 k, P^T I> == <k, I>
        assert after.kernel_orthogonal == before.kernel_orthogonal
        if before.kernel_orthogonal:
            assert after.tb == before.tb
