"""The lattice layer against sympy's Smith normal form, an implementation
that shares no code with it.

Skipped when sympy is not installed: tbcalc itself has no runtime
dependencies.
"""

import random
from math import gcd, lcm

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors  # noqa: E402
from sympy.matrices.normalforms import smith_normal_decomp  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

import helpers  # noqa: E402
from tbcalc import (  # noqa: E402
    IntegerMatrix,
    invariant_factors,
    minimal_order,
    smith_normal_form,
)


def square(rng):
    size = rng.randint(0, 5)
    return helpers.random_matrix(rng, size, size, 9)


def rectangular(rng):
    rows, cols = rng.sample(range(0, 6), 2)
    return helpers.random_matrix(rng, rows, cols, 9)


def rank_deficient(rng):
    # a product through a k-dimensional space has rank at most k
    rows, cols = rng.randint(2, 5), rng.randint(2, 5)
    k = rng.randint(0, min(rows, cols) - 1)
    return helpers.random_matrix(rng, rows, k, 4) @ helpers.random_matrix(rng, k, cols, 4)


FAMILIES = {"square": square, "rectangular": rectangular, "rank-deficient": rank_deficient}


def sympy_matrix(matrix: IntegerMatrix):
    return sympy.Matrix(matrix.rows, matrix.cols, list(matrix.entries))


def sympy_order(matrix: IntegerMatrix, target):
    """Order of target's class in coker matrix, from sympy's D = U @ M @ V."""
    m = sympy_matrix(matrix)
    d, u, v = smith_normal_decomp(m, domain=ZZ)
    assert u * m * v == d
    transformed = list(u * sympy.Matrix(target))
    diagonal = [int(abs(d[i, i])) for i in range(min(matrix.rows, matrix.cols))]
    order = 1
    for i, t in enumerate(transformed):
        s = diagonal[i] if i < len(diagonal) else 0
        if s == 0:
            if t != 0:
                return None
            continue
        order = lcm(order, s // gcd(s, int(t)))
    return order


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_invariant_factors_match_sympy(family):
    rng = random.Random(f"invariant-factors-{family}")
    for _ in range(300):
        matrix = FAMILIES[family](rng)
        smith = smith_normal_form(matrix)
        expected = [int(abs(f)) for f in sympy_invariant_factors(sympy_matrix(matrix), domain=ZZ)]
        assert list(smith.diagonal()) == expected
        padded = expected + [0] * (matrix.rows - len(expected))
        assert invariant_factors(smith) == tuple(padded)
        if family == "rank-deficient":
            assert smith.rank < min(matrix.rows, matrix.cols)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_minimal_order_matches_sympy(family):
    rng = random.Random(f"minimal-order-{family}")
    finite = infinite = 0
    for _ in range(300):
        matrix = FAMILIES[family](rng)
        # half the targets lie in the rational span, where the order is finite
        if rng.random() < 0.5:
            image = matrix @ helpers.random_vector(rng, matrix.cols, 3)
            content = 0
            for entry in image:
                content = gcd(content, entry)
            target = tuple(e // content for e in image) if content else image
        else:
            target = helpers.random_vector(rng, matrix.rows, 5)
        certificate = minimal_order(smith_normal_form(matrix), target)
        expected = sympy_order(matrix, target)
        if expected is None:
            assert certificate is None
            infinite += 1
        else:
            assert certificate is not None and certificate.order == expected
            assert matrix @ certificate.solution == tuple(expected * t for t in target)
            finite += 1
    assert finite >= 100
    if family != "square":
        assert infinite >= 20
