"""Exact linear algebra: frozen examples plus property tests against oracles."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import oracles
from tbcalc import (
    IntegerMatrix,
    OrderCertificate,
    invariant_factors,
    kernel_basis,
    minimal_order,
    smith_normal_form,
)

S1XS2 = IntegerMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
OUTER = IntegerMatrix.from_rows([[4, 2], [2, 1]])


@st.composite
def matrices(draw, max_dim: int = 5, bound: int = 9):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols)
    )
    return IntegerMatrix(rows, cols, tuple(entries))


@st.composite
def square_matrices(draw, max_dim: int = 4, bound: int = 6):
    size = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(st.integers(-bound, bound), min_size=size * size, max_size=size * size)
    )
    return IntegerMatrix(size, size, tuple(entries))


@st.composite
def systems(draw, max_dim: int = 3, bound: int = 3):
    matrix = draw(matrices(max_dim=max_dim, bound=bound))
    target = tuple(
        draw(st.lists(st.integers(-bound, bound), min_size=matrix.rows, max_size=matrix.rows))
    )
    return matrix, target


class TestIntegerMatrix:
    def test_construction_and_access(self):
        matrix = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        assert matrix[0, 1] == 2
        assert matrix.row(1) == (3, 4)
        assert matrix.column(0) == (1, 3)
        assert matrix.transpose().to_rows() == [[1, 3], [2, 4]]
        assert (-matrix).to_rows() == [[-1, -2], [-3, -4]]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(TypeError):
            IntegerMatrix(1, 1, (True,))
        with pytest.raises(TypeError):
            IntegerMatrix(1, 1, (1.5,))

    @pytest.mark.parametrize("entry", [True, False, 1.0, "1", None])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(TypeError, match="expected a plain integer"):
            IntegerMatrix(2, 2, (0, 1, entry, 3))

    def test_accepts_int_subclass(self):
        class Tagged(int):
            pass

        entry = Tagged(5)
        matrix = IntegerMatrix(1, 2, (entry, 2))
        assert matrix[0, 0] is entry
        assert matrix.entries == (5, 2)

    def test_reports_the_first_non_integer_entry(self):
        class Tagged(int):
            pass

        with pytest.raises(TypeError, match=r"got 2\.5$"):
            IntegerMatrix(2, 2, (Tagged(1), 2.5, True, "x"))

    def test_matmul(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        assert a @ (1, 1) == (3, 7)
        with pytest.raises(ValueError):
            a @ (1, 2, 3)

    def test_determinant_frozen(self):
        assert IntegerMatrix.from_rows([[2, 1, 3], [1, 1, 1], [0, 2, 5]]).determinant() == 7
        assert IntegerMatrix.identity(4).determinant() == 1
        assert IntegerMatrix.zeros(0, 0).determinant() == 1
        assert OUTER.determinant() == 0

    @given(square_matrices())
    @settings(deadline=None)
    def test_determinant_matches_cofactor_expansion(self, matrix):
        assert matrix.determinant() == oracles.cofactor_det(matrix.to_rows())


class TestSmithNormalForm:
    def test_frozen_diagonals(self):
        assert smith_normal_form(OUTER).diagonal() == (1, 0)
        assert smith_normal_form(OUTER).rank == 1
        assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])).diagonal() == (1, 6)
        assert smith_normal_form(IntegerMatrix.zeros(0, 0)).diagonal() == ()

    @given(matrices())
    def test_decomposition_properties(self, matrix):
        result = smith_normal_form(matrix)
        # D = U @ M @ V with unimodular U, V
        assert (result.U @ matrix @ result.V).entries == result.D.entries
        assert abs(oracles.cofactor_det(result.U.to_rows())) == 1
        assert abs(oracles.cofactor_det(result.V.to_rows())) == 1
        diagonal = result.diagonal()
        for i in range(matrix.rows):
            for j in range(matrix.cols):
                if i != j:
                    assert result.D[i, j] == 0
        assert all(d >= 0 for d in diagonal)
        for a, b in zip(diagonal, diagonal[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert result.rank == sum(1 for d in diagonal if d)
        assert result.rank == oracles.rational_rank(matrix.to_rows())


def integer_solution(matrix, target):
    """The witness of minimal_order when the order is 1, else None: the
    integer solution of matrix @ x == target, if there is one."""
    certificate = minimal_order(smith_normal_form(matrix), target)
    if certificate is None or certificate.order != 1:
        return None
    return certificate.solution


class TestSolveInteger:
    def test_frozen(self):
        assert integer_solution(S1XS2, (2, 1, 1)) == (2, 0, 1)
        assert integer_solution(S1XS2, (0, 2, 1)) is None
        assert integer_solution(OUTER, (2, 1)) == (0, 1)
        assert integer_solution(IntegerMatrix.zeros(0, 0), ()) == ()
        assert integer_solution(IntegerMatrix.zeros(2, 0), (0, 0)) == ()
        assert integer_solution(IntegerMatrix.zeros(2, 0), (1, 0)) is None
        # no integer solution, though twice the target has one
        assert integer_solution(IntegerMatrix.from_rows([[2]]), (1,)) is None

    def test_rejects_wrong_target_length(self):
        with pytest.raises(ValueError):
            minimal_order(smith_normal_form(S1XS2), (1, 2))

    @given(systems())
    @settings(deadline=None)
    def test_verdict_matches_bounded_search(self, system):
        matrix, target = system
        witness = integer_solution(matrix, target)
        if witness is not None:
            assert matrix @ witness == target
        try:
            oracle = oracles.brute_force_solution(matrix.to_rows(), list(target))
        except oracles.SearchBudgetExceeded:
            assume(False)
        assert (witness is None) == (oracle is None)


class TestKernel:
    def test_frozen(self):
        assert kernel_basis(smith_normal_form(OUTER)) == [(1, -2)]
        assert kernel_basis(smith_normal_form(IntegerMatrix.identity(3))) == []
        assert kernel_basis(smith_normal_form(IntegerMatrix.zeros(2, 2))) == [(1, 0), (0, 1)]

    @given(matrices())
    def test_kernel_properties(self, matrix):
        smith = smith_normal_form(matrix)
        vectors = kernel_basis(smith)
        zero = (0,) * matrix.rows
        for vector in vectors:
            assert matrix @ vector == zero
        assert len(vectors) == matrix.cols - smith.rank
        if vectors:
            assert oracles.rational_rank([list(v) for v in vectors]) == len(vectors)


class TestMinimalOrder:
    def test_frozen(self):
        assert minimal_order(smith_normal_form(IntegerMatrix.from_rows([[2]])), (1,)) == OrderCertificate(2, (1,))
        assert minimal_order(smith_normal_form(IntegerMatrix.from_rows([[-2]])), (-1,)) == OrderCertificate(2, (1,))
        assert minimal_order(smith_normal_form(IntegerMatrix.from_rows([[0]])), (1,)) is None
        assert minimal_order(smith_normal_form(S1XS2), (0, 2, 1)) is None
        assert minimal_order(smith_normal_form(S1XS2), (2, 1, 1)) == OrderCertificate(1, (2, 0, 1))

    @given(systems(max_dim=2, bound=3))
    @settings(deadline=None)
    def test_order_matches_bounded_search(self, system):
        matrix, target = system
        certificate = minimal_order(smith_normal_form(matrix), target)
        if certificate is None:
            assert oracles.rational_solution(matrix.to_rows(), list(target)) is None
            return
        scaled = tuple(certificate.order * t for t in target)
        assert matrix @ certificate.solution == scaled
        try:
            oracle = oracles.brute_force_min_order(
                matrix.to_rows(), list(target), limit=certificate.order
            )
        except oracles.SearchBudgetExceeded:
            assume(False)
        assert oracle is not None and oracle[0] == certificate.order

    @given(systems())
    @settings(deadline=None)
    def test_negation_equivariance(self, system):
        # the tb pipeline relies on order and pairing being stable under C -> -C
        matrix, target = system
        plus = minimal_order(smith_normal_form(matrix), target)
        minus = minimal_order(smith_normal_form(-matrix), target)
        if plus is None:
            assert minus is None
        else:
            assert minus is not None
            assert minus.order == plus.order
            assert minus.solution == tuple(-x for x in plus.solution)


class TestInvariantFactors:
    def test_frozen(self):
        assert invariant_factors(smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))) == (1, 6)
        assert invariant_factors(smith_normal_form(OUTER)) == (1, 0)
        assert invariant_factors(smith_normal_form(IntegerMatrix.identity(3))) == (1, 1, 1)
        assert invariant_factors(smith_normal_form(IntegerMatrix.zeros(2, 2))) == (0, 0)
        assert invariant_factors(smith_normal_form(IntegerMatrix.from_rows([[0]]))) == (0,)
        assert invariant_factors(smith_normal_form(IntegerMatrix.zeros(0, 0))) == ()

    @given(square_matrices(max_dim=4, bound=5))
    def test_nonsingular_product_is_determinant(self, matrix):
        det = oracles.cofactor_det(matrix.to_rows())
        assume(det != 0)
        product = math.prod(invariant_factors(smith_normal_form(matrix)))
        assert product == abs(det)

    @given(matrices(max_dim=3, bound=3), st.randoms(use_true_random=False))
    def test_invariance_under_permutation(self, matrix, rng):
        rows = matrix.to_rows()
        rng.shuffle(rows)
        permuted = [list(row) for row in zip(*rows)]
        rng.shuffle(permuted)
        back = [list(col) for col in zip(*permuted)] if permuted else [[] for _ in rows]
        shuffled = IntegerMatrix.from_rows(back if rows else [])
        assume(shuffled.rows == matrix.rows and shuffled.cols == matrix.cols)
        assert invariant_factors(smith_normal_form(shuffled)) == invariant_factors(smith_normal_form(matrix))
