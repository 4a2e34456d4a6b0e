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

import conftest  # noqa: E402
import helpers  # noqa: E402
import oracles  # noqa: E402
from tbcalc import (  # noqa: E402
    AbelianGroup,
    HeegaardData,
    IntegerMatrix,
    h1_groups,
    load_document,
    monodromy_matrix,
)
from tbcalc.lattice import minimal_order, smith_normal_form  # noqa: E402


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
        assert oracles.smith_factors(smith) == padded
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
        found = minimal_order(smith_normal_form(matrix), target)
        expected = sympy_order(matrix, target)
        if expected is None:
            assert found is None
            infinite += 1
        else:
            assert found is not None and found[0] == expected
            assert matrix @ found[1] == tuple(expected * t for t in target)
            finite += 1
    assert finite >= 100
    if family != "square":
        assert infinite >= 20


def test_exterior_matches_sympy():
    """h1_groups reads the exterior modulo a nonzero minor of [C; -I^T] of
    its own rank; sympy factors the whole meridian-extended matrix
    [C; -I^T]."""
    rng = random.Random("exterior")
    seen = {"trivial H1(M)": 0, "singular": 0, "torsion": 0, "torsion and free": 0, "I = 0": 0}
    for index in range(400):
        kind = helpers.NULLHOMOLOGOUS_KINDS[index % len(helpers.NULLHOMOLOGOUS_KINDS)]
        sample = helpers.random_nullhomologous_heegaard(rng, kind)
        extended = sample.relations.to_rows() + [[-value for value in sample.knot_relations]]
        factors = [int(abs(f)) for f in sympy_invariant_factors(sympy.Matrix(extended), domain=ZZ)]
        expected = AbelianGroup.from_invariant_factors(factors + [0] * (len(extended) - len(factors)))
        exterior = h1_groups(sample).exterior
        assert exterior == expected
        diagonal = smith_normal_form(sample.relations).diagonal()
        seen["trivial H1(M)"] += all(d == 1 for d in diagonal)
        seen["singular"] += 0 in diagonal
        seen["torsion"] += bool(exterior.torsion)
        seen["torsion and free"] += bool(exterior.torsion) and exterior.free_rank > 1
        seen["I = 0"] += not any(sample.knot_relations)
    assert min(seen.values()) >= 30, seen


def test_large_determinants_match_sympy():
    """Nonsingular C up to 12x12 with det C of 64 bits or more, where
    h1_groups works modulo |det C|: H1(M) and, for the knots that bound,
    the exterior against sympy's factors of C and of [C; -I^T]."""
    rng = random.Random("large determinants")
    exteriors = torsion_factors = 0
    for _ in range(120):
        genus = rng.randint(1, 12)
        relations = helpers.random_large_determinant(rng, genus)
        certificate = helpers.random_vector(rng, genus, 3)
        generators = relations @ certificate if rng.random() < 0.75 else helpers.random_vector(rng, genus, 3)
        sample = HeegaardData(genus, relations, generators, helpers.random_vector(rng, genus, 3))
        groups = h1_groups(sample)
        rows = relations.to_rows()
        assert groups.manifold == sympy_group(rows)
        torsion_factors += len(groups.manifold.torsion) > 1
        if groups.exterior is not None:
            assert groups.exterior == sympy_group(rows + [[-value for value in sample.knot_relations]])
            exteriors += 1
    assert exteriors >= 80 and torsion_factors >= 30, (exteriors, torsion_factors)


def test_singular_relations_match_sympy():
    """Singular C of every rank up to 12x12, where h1_groups works modulo
    a nonzero minor of order rank C: H1(M) and, for the knots that bound,
    the exterior against sympy's factors of C and of [C; -I^T].  C is a
    product through Z^rank, or a unimodular change of a diagonal of
    orders that share factors."""
    rng = random.Random("singular relations")
    exteriors = torsion = 0
    for genus in range(1, 13):
        for rank in range(genus):
            if rank % 2:
                relations = helpers.random_matrix(rng, genus, rank, 3) @ helpers.random_matrix(rng, rank, genus, 3)
            else:
                diagonal = [rng.choice((1, 2, 4, 6, 12)) if i < rank else 0 for i in range(genus)]
                middle = [[diagonal[i] * (i == j) for j in range(genus)] for i in range(genus)]
                middle = IntegerMatrix.from_rows(middle)
                relations = helpers.random_unimodular(rng, genus) @ middle @ helpers.random_unimodular(rng, genus)
            certificate = helpers.random_vector(rng, genus, 3)
            generators = relations @ certificate if rng.random() < 0.75 else helpers.random_vector(rng, genus, 3)
            sample = HeegaardData(genus, relations, generators, helpers.random_vector(rng, genus, 3))
            groups = h1_groups(sample)
            rows = relations.to_rows()
            assert groups.manifold == sympy_group(rows)
            assert groups.manifold.free_rank == genus - rank
            torsion += bool(groups.manifold.torsion)
            if groups.exterior is not None:
                assert groups.exterior == sympy_group(rows + [[-value for value in sample.knot_relations]])
                exteriors += 1
    assert exteriors >= 40 and torsion >= 20, (exteriors, torsion)


def sympy_group(rows):
    """The cokernel of the matrix with these rows, from sympy's invariant factors."""
    factors = [int(abs(f)) for f in sympy_invariant_factors(sympy.Matrix(rows), domain=ZZ)]
    return AbelianGroup.from_invariant_factors(factors + [0] * (len(rows) - len(factors)))


def test_dense_44_arc_book_matches_sympy():
    """The view (C, A, -A) of nonsingular-44.json, whose homology the CLI
    prints: H1(M) against sympy's factors of C, the exterior against
    those of [C; -I^T] = [C; A^T]."""
    document = load_document(conftest.DATA / "nonsingular-44.json")
    relations = monodromy_matrix(document.open_book)
    pairings = document.knot.arc_pairings
    groups = h1_groups(HeegaardData(relations.rows, relations, pairings, tuple([-a for a in pairings])))
    rows = relations.to_rows()
    assert relations.determinant().bit_length() == 274
    assert groups.manifold == sympy_group(rows)
    assert groups.exterior == sympy_group(rows + [list(pairings)])
