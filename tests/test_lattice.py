"""Exact linear algebra: frozen examples plus property tests against oracles."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import conftest
import helpers
import oracles
import tbcalc.lattice
from tbcalc.lattice import (
    IntegerMatrix,
    _bordered_certificate,
    _check_bordered,
    _check_modular,
    _factors_modulo_minor,
    _left_kernel,
    _modular_certificate,
    cokernel_factors,
    minimal_order,
    order_certificate,
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
def products(draw, max_dim: int = 4):
    """Factors as lists of rows, left rows x inner and right inner x cols,
    with entries of a few bits or of thousands, random rows of the left
    factor and columns of the right one zeroed, and either factor perhaps
    all zero."""
    rows, inner, cols = draw(st.lists(st.integers(0, max_dim), min_size=3, max_size=3))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(2**4000), 2**4000))

    def factor(height, width, zero_rows, zero_cols):
        matrix = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(height)]
        if draw(st.booleans()):
            zero_rows, zero_cols = range(height), range(width)
        return [
            [0 if i in zero_rows or j in zero_cols else e for j, e in enumerate(row)]
            for i, row in enumerate(matrix)
        ]

    indices = st.sets(st.integers(0, max_dim))
    left = factor(rows, inner, draw(indices), ())
    right = factor(inner, cols, (), draw(indices))
    return left, right, inner, cols


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

    @pytest.mark.parametrize(
        "rows,cols,entries",
        [(2.0, 1, (1, 2)), (1, 2.0, (1, 2)), (True, True, (5,)), (1, False, ()), ("1", 1, (1,))],
    )
    def test_rejects_non_integer_dimensions(self, rows, cols, entries):
        with pytest.raises(TypeError, match="expected a plain integer"):
            IntegerMatrix(rows, cols, entries)

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

    @given(products())
    @settings(deadline=None)
    def test_matmul_matches_the_triple_loop(self, factors):
        left, right, inner, cols = factors
        a = IntegerMatrix(len(left), inner, tuple([e for row in left for e in row]))
        b = IntegerMatrix(inner, cols, tuple([e for row in right for e in row]))
        expected = oracles.matmul(left, right, cols)
        product = a @ b
        assert (product.rows, product.cols, product.to_rows()) == (len(left), cols, expected)
        for j in range(cols):
            column = [row[j] for row in right]
            assert a @ column == a @ tuple(column) == tuple([row[j] for row in expected])

    def test_determinant_frozen(self):
        assert IntegerMatrix.from_rows([[2, 1, 3], [1, 1, 1], [0, 2, 5]]).determinant() == 7
        assert helpers.identity(4).determinant() == 1
        assert helpers.zeros(0, 0).determinant() == 1
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
        assert smith_normal_form(helpers.zeros(0, 0)).diagonal() == ()

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

    @given(matrices())
    def test_negation_negates_the_leading_rows_of_u(self, matrix):
        # the pivots see absolute values and floor quotients, which -M shares
        # with M; only the sign normalization of each pivot row differs
        plus, minus = smith_normal_form(matrix), smith_normal_form(-matrix)
        assert (minus.D, minus.V, minus.rank) == (plus.D, plus.V, plus.rank)
        rows = plus.U.to_rows()
        negated = [[-e for e in row] if i < plus.rank else row for i, row in enumerate(rows)]
        assert minus.U.to_rows() == negated


class TestSkippedWork:
    """Products skip the entries of rows and columns seen to be zero in
    their factors; the multiplications of entries count what they compute."""

    @pytest.fixture
    def multiplications(self, monkeypatch):
        """Calls of lattice.mul, one count per product since the fixture was
        set up."""
        counts = [0]
        matmul = IntegerMatrix.__matmul__

        def counting_mul(a, b):
            counts[-1] += 1
            return a * b

        def counting_matmul(matrix, other):
            counts.append(0)
            return matmul(matrix, other)

        monkeypatch.setattr(tbcalc.lattice, "mul", counting_mul)
        monkeypatch.setattr(IntegerMatrix, "__matmul__", counting_matmul)
        return counts

    def test_zero_matrix(self, multiplications):
        n = 80
        result = smith_normal_form(helpers.zeros(n, n))
        assert (result.rank, result.D) == (0, helpers.zeros(n, n))
        assert sum(multiplications) == 0

    def test_check_reads_the_live_rows_of_u_times_m(self, multiplications):
        # rows rank.. of U @ M are zero, so the second product of the
        # re-multiplication computes only the first rank rows
        rng = random.Random(12)
        n, rank = 12, 6
        matrix = helpers.random_matrix(rng, n, rank, 3) @ helpers.random_matrix(rng, rank, n, 3)
        multiplications.clear()
        result = smith_normal_form(matrix)
        assert result.rank == rank
        assert multiplications == [n**3, rank * n * n]


def integer_solution(matrix, target):
    """The witness of minimal_order when the order is 1, else None: the
    integer solution of matrix @ x == target, if there is one."""
    found = minimal_order(smith_normal_form(matrix), target)
    if found is None or found[0] != 1:
        return None
    return found[1]


class TestSolveInteger:
    def test_frozen(self):
        assert integer_solution(S1XS2, (2, 1, 1)) == (2, 0, 1)
        assert integer_solution(S1XS2, (0, 2, 1)) is None
        assert integer_solution(OUTER, (2, 1)) == (0, 1)
        assert integer_solution(helpers.zeros(0, 0), ()) == ()
        assert integer_solution(helpers.zeros(2, 0), (0, 0)) == ()
        assert integer_solution(helpers.zeros(2, 0), (1, 0)) is None
        # no integer solution, though twice the target has one
        assert integer_solution(IntegerMatrix.from_rows([[2]]), (1,)) is None

    def test_rejects_wrong_target_length(self):
        with pytest.raises(ValueError):
            minimal_order(smith_normal_form(S1XS2), (1, 2))
        # before its elimination: the witness would read a shorter target
        # against the leading rows of a matrix that is not square
        for matrix, target in ((S1XS2, (1, 2)), (helpers.zeros(2, 1), (1,))):
            with pytest.raises(ValueError, match="target length"):
                order_certificate(matrix, target, (0,) * matrix.cols)

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


def kernel_basis(matrix):
    """The trailing cols - rank columns of V, which order_certificate
    pairs with I for its kernel verdict."""
    smith = smith_normal_form(matrix)
    return [smith.V.column(j) for j in range(smith.rank, matrix.cols)]


class TestKernel:
    def test_frozen(self):
        assert kernel_basis(OUTER) == [(1, -2)]
        assert kernel_basis(helpers.identity(3)) == []
        assert kernel_basis(helpers.zeros(2, 2)) == [(1, 0), (0, 1)]

    @given(matrices())
    def test_kernel_properties(self, matrix):
        smith = smith_normal_form(matrix)
        vectors = kernel_basis(matrix)
        zero = (0,) * matrix.rows
        for vector in vectors:
            assert matrix @ vector == zero
        assert len(vectors) == matrix.cols - smith.rank
        if vectors:
            assert oracles.rational_rank([list(v) for v in vectors]) == len(vectors)


class TestOrderCertificate:
    def test_frozen(self):
        assert order_certificate(OUTER, (2, 1), (1, -2)) == (1, (0, 1), False)
        assert order_certificate(OUTER, (2, 1), (2, 1)) == (1, (0, 1), True)
        assert order_certificate(IntegerMatrix.from_rows([[-2]]), (-1,), (3,)) == (2, (1,), True)
        assert order_certificate(S1XS2, (0, 2, 1), (1, 1, 1)) is None

    @given(systems(), st.data())
    @settings(deadline=None)
    def test_matches_minimal_order_and_the_rank_test(self, system, data):
        # pairing is orthogonal to ker M exactly when it lies in the rational
        # row space of M, when appending it as a row keeps the rank; a
        # verdict of infinite order, on any shape, is reached with no Smith form
        matrix, target = system
        pairing = data.draw(st.lists(st.integers(-3, 3), min_size=matrix.cols, max_size=matrix.cols))
        with pytest.MonkeyPatch.context() as patch:
            calls = conftest.record_calls(patch, tbcalc.lattice, "smith_normal_form")
            found = order_certificate(matrix, target, pairing)
        expected = minimal_order(smith_normal_form(matrix), target)
        assert len(calls) == (expected is not None)
        if expected is None:
            assert found is None
            return
        assert found[:2] == expected
        rows = matrix.to_rows()
        orthogonal = not any(pairing) or oracles.rational_rank(rows + [pairing]) == oracles.rational_rank(rows)
        assert found[2] is orthogonal

    @pytest.mark.parametrize(
        "wrong, target, check",
        [
            (lambda P, Q, p, kernel: (P, Q, p, [[1] + kernel[0][1:], kernel[1]]), (0, 1, 1), "C @ k == 0"),
            (lambda P, Q, p, kernel: (P, Q, p, [kernel[0][:3] + [1], kernel[1]]), (0, 1, 1), "in A's slot"),
            (lambda P, Q, p, kernel: (P, Q, p, [kernel[0], kernel[0]]), (0, 1, 1), "independence"),
            (lambda P, Q, p, kernel: (P, [1, 2], p, kernel), (0, 1, 1), r"\|det \[C \| A\]\[Q, P\]\| == \|p\|"),
            (lambda P, Q, p, kernel: ([0, 1], Q, p, kernel[1:]), (1, 0, 0), r"rank D == \|P\|"),
        ],
        ids=["changed row", "nonzero in A's slot", "repeated row", "minor of 0", "rows that do not span"],
    )
    def test_a_wrong_rank_certificate_fails_its_check(self, monkeypatch, wrong, target, check):
        """Infinite order, for the target (0, 1, 1), rests on kernel rows of
        C, checked 0 in A's slot, C @ k == 0 and independent off P, so rank
        C <= |P| - 1, and on the minor [C | A][Q, P], computed again and
        nonzero, so rank [C | A] >= |P|.  For the target (1, 0, 0) in the
        span, a row dropped and its column named a pivot passes the checks
        of the rows left, and would pair I with too few rows; rank D == |P|
        on the checked Smith form refuses it.  Each is refused by name."""
        matrix = IntegerMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        found = tbcalc.lattice._kernel
        outside, inside = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]], [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        assert found(outside, 4) == ([0, 3], [0, 1], 1, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert found(inside, 4) == ([0], [0], 1, [[0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 1]])
        monkeypatch.setattr(tbcalc.lattice, "_kernel", lambda rows, width: wrong(*found(rows, width)))
        with pytest.raises(AssertionError, match=check):
            order_certificate(matrix, target, (0, 1, 0))

    def test_one_elimination_per_query(self, monkeypatch):
        """Each query makes one _kernel elimination, of the rows of [C | A],
        and no _left_kernel; it computes a minor again only when A lies
        outside the span, and makes a Smith form only for a finite order,
        on the seeded matrices of every rank, square and (n+1) x n."""
        calls = []

        def record(name, copy=lambda arguments: arguments):
            original = getattr(tbcalc.lattice, name)

            def recording(*arguments, **options):
                calls.append((name, copy(arguments)))
                return original(*arguments, **options)

            monkeypatch.setattr(tbcalc.lattice, name, recording)

        # _kernel eliminates its rows in place, so they are recorded as given
        record("_kernel", lambda arguments: ([list(row) for row in arguments[0]], arguments[1]))
        for name in ("_left_kernel", "_check_minor", "smith_normal_form", "_bareiss"):
            record(name)
        rng = random.Random("one elimination per tb query")
        seen = {True: 0, False: 0}
        for matrix in CERTIFICATE_CASES:
            image = matrix @ helpers.random_vector(rng, matrix.cols, 2)
            for target in (image, helpers.random_vector(rng, matrix.rows, 2)):
                calls.clear()
                infinite = order_certificate(matrix, target, (1,) * matrix.cols) is None
                names = [name for name, _ in calls]
                augmented = [row + [a] for row, a in zip(matrix.to_rows(), target)]
                kernels = [arguments for name, arguments in calls if name == "_kernel"]
                assert kernels == [(augmented, matrix.cols + 1)]
                assert names.count("_left_kernel") == 0
                assert names.count("_check_minor") == names.count("_bareiss") - 1 == infinite
                assert names.count("smith_normal_form") == (not infinite)
                seen[infinite] += 1
        assert min(seen.values()) >= 40, seen

    @pytest.mark.parametrize("rows, target", [([[-2]], (-1,)), ([[2, 1], [1, 3]], (1, 0))])
    def test_the_cramer_check_refuses_a_multiple_of_the_order(self, monkeypatch, rows, target):
        """(2d, 2E) passes C @ E == d * A; on a nonsingular C, Cramer's rule
        shows that d is not least."""
        found = tbcalc.lattice.minimal_order

        def doubled(smith, target):
            order, solution = found(smith, target)
            return 2 * order, tuple([2 * e for e in solution])

        monkeypatch.setattr(tbcalc.lattice, "minimal_order", doubled)
        matrix = IntegerMatrix.from_rows(rows)
        order, solution = doubled(smith_normal_form(matrix), target)
        assert matrix @ solution == tuple([order * a for a in target])
        with pytest.raises(AssertionError, match="Cramer check"):
            order_certificate(matrix, target, (1,) * matrix.cols)


class TestCokernelFactors:
    def test_frozen(self):
        # det C = 5, so m = 5; (3, 4) = C @ (1, 1) bounds
        nonsingular = IntegerMatrix.from_rows([[2, 1], [1, 3]])
        assert cokernel_factors(nonsingular, (3, 4), (1, 2)) == ([1, 5], [1, 1, 0])
        assert cokernel_factors(nonsingular, (1, 0), (1, 2)) == ([1, 5], None)
        # det C = 0, and m is a nonzero minor of order rank C, here 2
        singular = IntegerMatrix.from_rows([[2, 0], [0, 0]])
        assert cokernel_factors(singular, (2, 0), (2, 0)) == ([2, 0], [2, 0, 0])
        assert cokernel_factors(singular, (1, 0), (2, 0)) == ([2, 0], None)
        assert cokernel_factors(singular, None, None) == ([2, 0], None)


def certificate_cases():
    """Seeded matrices up to 8x8, square and (n+1) x n, of every rank r:
    P @ T @ Q with P and Q unimodular and T of rank r, upper triangular
    on its first r rows with orders 1, 2, 4, 6 or 12 on the diagonal, so
    that Z/4 and Z/2 + Z/2 both occur; and, for each n, a nonsingular
    n x n matrix whose determinant has 64 bits or more."""
    cases = []
    for n in range(1, 9):
        cases.append(helpers.random_large_determinant(random.Random(f"certificate {n}x{n} of a large det"), n))
        for rows in (n, n + 1):
            for rank in range(n + 1):
                rng = random.Random(f"certificate {rows}x{n} rank {rank}")
                diagonal = [rng.choice((1, 1, 2, 4, 6, 12)) for _ in range(rank)] + [0] * (rows - rank)
                middle = [
                    [diagonal[i] if i == j else rng.randint(-3, 3) if i < rank and j > i else 0 for j in range(n)]
                    for i in range(rows)
                ]
                middle = IntegerMatrix.from_rows(middle)
                cases.append(helpers.random_unimodular(rng, rows) @ middle @ helpers.random_unimodular(rng, n))
    return cases


CERTIFICATE_CASES = certificate_cases()


class TestLeftKernel:
    """_left_kernel, one Bareiss elimination of M^T with back-substitution,
    on the seeded matrices of every rank, square and (n+1) x n."""

    def test_kernel_rows_rank_and_minor(self):
        ranks = set()
        for matrix in CERTIFICATE_CASES:
            pivot_rows, pivot_cols, pivot, kernel = _left_kernel(matrix)
            rank = sum(1 for f in oracles.smith_factors(smith_normal_form(matrix)) if f)
            assert len(pivot_rows) == len(pivot_cols) == rank
            assert len(kernel) == matrix.rows - rank
            minor = IntegerMatrix.from_rows([[matrix[i, j] for j in pivot_cols] for i in pivot_rows])
            assert abs(pivot) == abs(minor.determinant()) > 0
            others = [i for i in range(matrix.rows) if i not in pivot_rows]
            rows = matrix.to_rows()
            for j, u in zip(others, kernel):
                assert oracles.matmul([u], rows, matrix.cols) == [[0] * matrix.cols]
                assert [(i, u[i]) for i in others if u[i]] == [(j, pivot)]
            ranks.add((matrix.rows - matrix.cols, rank))
        assert ranks == {(extra, r) for extra in (0, 1) for r in range(9)}

    @given(matrices(max_dim=6, bound=3))
    def test_matches_the_rational_rank(self, matrix):
        pivot_rows, pivot_cols, pivot, kernel = _left_kernel(matrix)
        rows = matrix.to_rows()
        assert len(kernel) == matrix.rows - oracles.rational_rank(rows) == matrix.rows - len(pivot_rows)
        assert oracles.matmul(kernel, rows, matrix.cols) == [[0] * matrix.cols for _ in kernel]


def bordered_cases():
    """(C, I) for each nonsingular square C of CERTIFICATE_CASES, with
    I = 0, whose exterior is coker C + Z, and with a seeded I."""
    rng = random.Random("bordered certificates")
    cases = []
    for matrix in CERTIFICATE_CASES:
        if matrix.rows == matrix.cols and matrix.determinant():
            cases.append((matrix, (0,) * matrix.cols))
            cases.append((matrix, helpers.random_vector(rng, matrix.cols, 3)))
    return cases


BORDERED_CASES = bordered_cases()


def modular_product(matrix, U, V, m):
    """U @ M @ V modulo m by the oracle's triple loop."""
    left = oracles.matmul(U, matrix.to_rows(), matrix.cols)
    return [[e % m for e in row] for row in oracles.matmul(left, V, matrix.cols)]


# the check each kind of transform certificate fails by
TRANSFORM_CHECKS = {"C": r"U @ M @ V == D \(mod m\)", "bordered": r"U' @ \[D; w\] @ V' == D' \(mod m\)"}


def transform_certificates(kind):
    """(M, m, U, V, diagonal, check) for each certificate U @ M @ V ==
    diag(diagonal) (mod m) of the kind: "C", with M = C, for each of
    CERTIFICATE_CASES, or "bordered", with M = [D; w] read off C's
    certificate, for each of BORDERED_CASES.  check(U, V, diagonal) runs
    the checker on the certificate with those parts in place of its own."""
    if kind == "C":
        for matrix in CERTIFICATE_CASES:
            certificate = _modular_certificate(matrix)
            m, U, V, diagonal = certificate[3:]

            def check(U, V, diagonal, matrix=matrix, head=certificate[:4]):
                _check_modular(matrix, head + (U, V, diagonal))

            yield matrix, m, U, V, diagonal, check
        return
    for matrix, pairing in BORDERED_CASES:
        certificate = _modular_certificate(matrix)
        w, U, V, diagonal = _bordered_certificate(pairing, certificate)
        m = certificate[3]
        border = [[d if j == i else 0 for j in range(len(w))] for i, d in enumerate(certificate[6])] + [w]

        def check(U, V, diagonal, pairing=pairing, certificate=certificate, w=w):
            _check_bordered(pairing, certificate, (w, U, V, diagonal))

        yield IntegerMatrix.from_rows(border), m, U, V, diagonal, check


class TestModularCertificate:
    """The certificate of cokernel_factors: left-kernel rows, a nonzero
    minor m of order rank M (|det M| for a nonsingular M), and U @ M @ V
    == D (mod m).  The checker accepts the real one and refuses each kind
    of wrong one, naming the check that failed."""

    def test_accepts_the_real_certificate(self):
        ranks, large = set(), 0
        for matrix in CERTIFICATE_CASES:
            certificate = _modular_certificate(matrix)
            _check_modular(matrix, certificate)
            ranks.add((matrix.rows - matrix.cols, len(certificate[0])))
            large += certificate[3] >= 2**64
            assert _factors_modulo_minor(matrix, None)[0] == oracles.smith_factors(smith_normal_form(matrix))
        assert ranks == {(extra, r) for extra in (0, 1) for r in range(9)}
        assert large == 8

    def test_the_verdict_matches_the_smith_form(self):
        rng = random.Random("certificate verdicts")
        seen = {True: 0, False: 0}
        for matrix in CERTIFICATE_CASES:
            image = matrix @ helpers.random_vector(rng, matrix.cols, 2)
            for target in (image, helpers.random_vector(rng, matrix.rows, 2)):
                found = minimal_order(smith_normal_form(matrix), target)
                bounds = found is not None and found[0] == 1
                assert _factors_modulo_minor(matrix, target)[1] is bounds
                seen[bounds] += 1
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("kind, floor", [("C", 300), ("bordered", 100)], ids=["C", "bordered"])
    def test_refuses_a_changed_diagonal_entry(self, kind, floor):
        refused = 0
        for _, m, U, V, diagonal, check in transform_certificates(kind):
            for i in range(len(diagonal) if m > 1 else 0):
                changed = diagonal[:i] + [(diagonal[i] + 1) % m] + diagonal[i + 1 :]
                with pytest.raises(AssertionError, match=TRANSFORM_CHECKS[kind]):
                    check(U, V, changed)
                refused += 1
        assert refused >= floor

    @pytest.mark.parametrize("kind, floor", [("C", 100), ("bordered", 20)], ids=["C", "bordered"])
    def test_refuses_factors_regrouped_with_the_same_product(self, kind, floor):
        """Z/o with p^2 dividing o, put as Z/(o/p) + Z/p in place of Z/o and
        a unit of D (Z/4 as Z/2 + Z/2): the orders multiply to the same
        product, and the group differs; of C, or of the exterior."""
        refused = 0
        for _, m, U, V, diagonal, check in transform_certificates(kind):
            orders = [math.gcd(d, m) for d in diagonal]
            units = [j for j, order in enumerate(orders) if order == 1]
            for i, order in enumerate(orders):
                p = next((p for p in (2, 3) if order % (p * p) == 0), None)
                if p is None or not units:
                    continue
                regrouped = list(diagonal)
                regrouped[i], regrouped[units[0]] = order // p, p
                assert math.prod([math.gcd(d, m) for d in regrouped]) == math.prod(orders)
                with pytest.raises(AssertionError, match=TRANSFORM_CHECKS[kind]):
                    check(U, V, regrouped)
                refused += 1
        assert refused >= floor

    @pytest.mark.parametrize(
        "kind, seed, floor",
        [("C", "changed transforms", 300), ("bordered", "changed bordered transforms", 100)],
        ids=["C", "bordered"],
    )
    def test_refuses_a_changed_transform_entry(self, kind, seed, floor):
        rng = random.Random(seed)
        refused = 0
        for matrix, m, U, V, diagonal, check in transform_certificates(kind):
            expected = modular_product(matrix, U, V, m)
            for _ in range(3):
                i, k = rng.randrange(len(U)), rng.randrange(len(U))
                changed_U = [list(row) for row in U]
                changed_U[i][k] = (changed_U[i][k] + 1) % m
                i, k = rng.randrange(len(V)), rng.randrange(len(V))
                changed_V = [list(row) for row in V]
                changed_V[i][k] = (changed_V[i][k] + 1) % m
                for left, right in ((changed_U, V), (U, changed_V)):
                    if modular_product(matrix, left, right, m) != expected:
                        with pytest.raises(AssertionError, match=TRANSFORM_CHECKS[kind]):
                            check(left, right, diagonal)
                        refused += 1
        assert refused >= floor

    def test_refuses_a_modulus_that_is_not_the_named_minor(self):
        for matrix in CERTIFICATE_CASES:
            pivot_rows, pivot_cols, kernel, m, U, V, diagonal = _modular_certificate(matrix)
            for wrong in (0, m + 1, 2 * m):
                with pytest.raises(AssertionError, match=r"m == \|det M\[P, Q\]\| != 0"):
                    _check_modular(matrix, (pivot_rows, pivot_cols, kernel, wrong, U, V, diagonal))

    def test_accepts_the_real_bordered_certificate(self):
        """For a nonsingular C and a knot that bounds, [C; -I^T] is read off
        C's certificate and matches the Smith form of [C; -I^T]."""
        rng = random.Random("bordered verdicts")
        for matrix, pairing in BORDERED_CASES:
            certificate = _modular_certificate(matrix)
            _check_bordered(pairing, certificate, _bordered_certificate(pairing, certificate))
            generators = matrix @ helpers.random_vector(rng, matrix.cols, 2)
            extended = IntegerMatrix.from_rows(matrix.to_rows() + [[-e for e in pairing]])
            assert cokernel_factors(matrix, generators, pairing)[1] == oracles.smith_factors(
                smith_normal_form(extended)
            )
        assert len(BORDERED_CASES) == 32

    def test_refuses_a_wrong_border(self):
        refused = 0
        for matrix, pairing in BORDERED_CASES:
            certificate = _modular_certificate(matrix)
            w, U, V, diagonal = _bordered_certificate(pairing, certificate)
            m = certificate[3]
            for i in range(len(w) if m > 1 else 0):
                changed = w[:i] + [(w[i] + 1) % m] + w[i + 1 :]
                with pytest.raises(AssertionError, match=r"w == -I\^T @ V \(mod m\)"):
                    _check_bordered(pairing, certificate, (changed, U, V, diagonal))
                refused += 1
        assert refused >= 100

    def test_refuses_wrong_kernel_rows(self):
        matrix = IntegerMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
        pivot_rows, pivot_cols, kernel, m, U, V, diagonal = _modular_certificate(matrix)
        assert (pivot_rows, len(kernel)) == ([0], 2)
        shifted = [[kernel[0][0] + 1] + kernel[0][1:], kernel[1]]
        with pytest.raises(AssertionError, match="u @ M == 0"):
            _check_modular(matrix, (pivot_rows, pivot_cols, shifted, m, U, V, diagonal))
        # the same row twice is checked, but leaves rank M <= 1 unshown
        with pytest.raises(AssertionError, match="independence"):
            _check_modular(matrix, (pivot_rows, pivot_cols, [kernel[0], kernel[0]], m, U, V, diagonal))


class TestMinimalOrder:
    def test_frozen(self):
        assert minimal_order(smith_normal_form(IntegerMatrix.from_rows([[2]])), (1,)) == (2, (1,))
        assert minimal_order(smith_normal_form(IntegerMatrix.from_rows([[-2]])), (-1,)) == (2, (1,))
        assert minimal_order(smith_normal_form(IntegerMatrix.from_rows([[0]])), (1,)) is None
        assert minimal_order(smith_normal_form(S1XS2), (0, 2, 1)) is None
        assert minimal_order(smith_normal_form(S1XS2), (2, 1, 1)) == (1, (2, 0, 1))

    @given(systems(max_dim=2, bound=3))
    @settings(deadline=None)
    def test_order_matches_bounded_search(self, system):
        matrix, target = system
        found = minimal_order(smith_normal_form(matrix), target)
        if found is None:
            assert oracles.rational_solution(matrix.to_rows(), list(target)) is None
            return
        order, solution = found
        assert matrix @ solution == tuple(order * t for t in target)
        try:
            oracle = oracles.brute_force_min_order(matrix.to_rows(), list(target), limit=order)
        except oracles.SearchBudgetExceeded:
            assume(False)
        assert oracle is not None and oracle[0] == order

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
            assert minus[0] == plus[0]
            assert minus[1] == tuple(-x for x in plus[1])


class TestInvariantFactors:
    def test_frozen(self):
        # the padded Smith diagonal, and the factors cokernel_factors gives
        # C, by elimination modulo a nonzero minor of order rank C
        cases = [
            ([[2, 0], [0, 3]], [1, 6]),
            ([[4, 2], [2, 1]], [1, 0]),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]),
            ([[0, 0], [0, 0]], [0, 0]),
            ([[0]], [0]),
            ([], []),
        ]
        for rows, factors in cases:
            matrix = IntegerMatrix.from_rows(rows)
            assert oracles.smith_factors(smith_normal_form(matrix)) == factors
            assert cokernel_factors(matrix, None, None) == (factors, None)

    @given(square_matrices(max_dim=4, bound=5))
    def test_nonsingular_product_is_determinant(self, matrix):
        det = oracles.cofactor_det(matrix.to_rows())
        assume(det != 0)
        product = math.prod(oracles.smith_factors(smith_normal_form(matrix)))
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
        factors = oracles.smith_factors
        assert factors(smith_normal_form(shuffled)) == factors(smith_normal_form(matrix))
