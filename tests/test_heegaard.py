"""Surface-side tb: dividing-set term, orders, and result invariants."""

import random
from fractions import Fraction

import pytest

import helpers
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

    def test_negative_genus(self):
        with pytest.raises(ValueError):
            HeegaardData(-1, IntegerMatrix.zeros(0, 0), (), (), 0)

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
