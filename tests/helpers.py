"""Seeded random generators for property tests."""

from __future__ import annotations

import random

from tbcalc import (
    DehnTwist,
    HeegaardData,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntegerMatrix:
    entries = tuple(rng.randint(-bound, bound) for _ in range(rows * cols))
    return IntegerMatrix(rows, cols, entries)


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, n, tuple([int(i == j) for i in range(n) for j in range(n)]))


def zeros(rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(rows, cols, (0,) * (rows * cols))


def transpose(matrix: IntegerMatrix) -> IntegerMatrix:
    columns = [e for j in range(matrix.cols) for e in matrix.column(j)]
    return IntegerMatrix(matrix.cols, matrix.rows, tuple(columns))


def random_vector(rng: random.Random, size: int, bound: int) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(size))


def random_open_book(
    rng: random.Random,
    max_twists: int = 8,
    max_arcs: int = 4,
    bound: int = 2,
) -> OpenBookPresentation:
    arcs = rng.randint(0, max_arcs)
    # page with 2g + r - 1 = arcs; alternate between planar and positive genus
    if arcs >= 2 and rng.random() < 0.5:
        genus = rng.randint(1, arcs // 2)
        boundary = arcs - 2 * genus + 1
    else:
        genus = 0
        boundary = arcs + 1
    page = PageSurface(genus, boundary)
    count = rng.randint(0, max_twists)
    twists = tuple(
        DehnTwist(rng.choice((1, -1)), random_vector(rng, arcs, bound))
        for _ in range(count)
    )
    pairings = [[0] * count for _ in range(count)]
    for m in range(count):
        for k in range(m + 1, count):
            value = rng.randint(-bound, bound)
            pairings[m][k] = value
            pairings[k][m] = -value
    matrix = IntegerMatrix(count, count, tuple(v for row in pairings for v in row))
    return OpenBookPresentation(page, twists, matrix)


def page_intersection_form(page: PageSurface) -> IntegerMatrix:
    """The page's intersection form on the standard cut arcs, J_g + 0.

    Arcs 2k and 2k + 1 (k < genus) pair to 1 and -1; the other arcs, one
    per extra boundary component, pair to zero with everything.
    """
    size = page.arc_count
    rows = [[0] * size for _ in range(size)]
    for k in range(page.genus):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = 1, -1
    return IntegerMatrix(size, size, tuple([v for row in rows for v in row]))


def realizable_open_book(
    page: PageSurface, signs: list[int], pairings: IntegerMatrix
) -> OpenBookPresentation:
    """The open book whose twists have these signs and arc pairings P.

    The twist curves' pairings with each other are fixed by P and the
    page's intersection form J: the block is P @ J @ P^T, zero on a
    planar page.
    """
    twists = tuple(DehnTwist(sign, pairings.row(k)) for k, sign in enumerate(signs))
    block = pairings @ page_intersection_form(page) @ transpose(pairings)
    return OpenBookPresentation(page, twists, block)


def random_realizable_open_book(
    rng: random.Random, max_twists: int = 8, max_arcs: int = 4, bound: int = 2
) -> OpenBookPresentation:
    """A realizable open book of genus 0 to 2 (at most max_arcs // 2)."""
    genus = rng.randint(0, min(2, max_arcs // 2))
    arcs = rng.randint(2 * genus, max_arcs)
    pairings = random_matrix(rng, rng.randint(0, max_twists), arcs, bound)
    signs = [rng.choice((1, -1)) for _ in range(pairings.rows)]
    return realizable_open_book(PageSurface(genus, arcs - 2 * genus + 1), signs, pairings)


def random_knot(rng: random.Random, open_book: OpenBookPresentation, bound: int = 2) -> PageKnot:
    return PageKnot(random_vector(rng, open_book.page.arc_count, bound))


def random_bounding_knot(rng: random.Random, open_book: OpenBookPresentation, bound: int = 2):
    """A knot guaranteed nullhomologous: its pairings are C @ E for a random E."""
    from tbcalc import monodromy_matrix

    size = open_book.page.arc_count
    certificate = random_vector(rng, size, bound)
    return PageKnot(monodromy_matrix(open_book) @ certificate)


def random_heegaard(rng: random.Random, max_genus: int = 4, bound: int = 3) -> HeegaardData:
    genus = rng.randint(0, max_genus)
    relations = random_matrix(rng, genus, genus, bound)
    generators = random_vector(rng, genus, bound)
    knot_relations = random_vector(rng, genus, bound)
    dividing = 2 * rng.randint(0, 3)
    return HeegaardData(genus, relations, generators, knot_relations, dividing)


def random_unimodular(rng: random.Random, size: int, bound: int = 2) -> IntegerMatrix:
    """A random matrix of determinant +-1: a product of elementary row operations."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        factor = rng.choice([f for f in range(-bound, bound + 1) if f])
        rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
    if size and rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return IntegerMatrix.from_rows(rows)


# the shapes of C that the exterior computation treats differently
NULLHOMOLOGOUS_KINDS = ("unimodular", "rank-deficient", "random", "torsion-and-free")


def random_nullhomologous_heegaard(
    rng: random.Random, kind: str, max_genus: int = 5, bound: int = 3
) -> HeegaardData:
    """Heegaard data of genus >= 1 whose knot bounds: A = C @ E for a random E.

    kind picks C: unimodular (every invariant factor 1), rank-deficient
    (a product through a smaller space), random entries, or a unimodular
    change of a diagonal with both zeros and torsion.  A quarter of the
    samples have I = 0.
    """
    genus = rng.randint(1, max_genus)
    if kind == "unimodular":
        relations = random_unimodular(rng, genus)
    elif kind == "rank-deficient":
        rank = rng.randint(0, genus - 1)
        relations = random_matrix(rng, genus, rank, bound) @ random_matrix(rng, rank, genus, bound)
    elif kind == "random":
        relations = random_matrix(rng, genus, genus, bound)
    elif kind == "torsion-and-free":
        diagonal = [rng.choice((0, 1, 2, 3, 4, 6)) for _ in range(genus)]
        middle = IntegerMatrix(
            genus, genus, tuple(diagonal[i] if i == j else 0 for i in range(genus) for j in range(genus))
        )
        relations = random_unimodular(rng, genus) @ middle @ random_unimodular(rng, genus)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    certificate = random_vector(rng, genus, bound)
    knot_relations = (0,) * genus if rng.random() < 0.25 else random_vector(rng, genus, bound)
    return HeegaardData(genus, relations, relations @ certificate, knot_relations)


def random_large_determinant(rng: random.Random, size: int) -> IntegerMatrix:
    """A size x size matrix whose determinant has 64 bits or more.

    It is P @ T @ Q with P and Q unimodular and T upper triangular: a
    diagonal of small orders that share factors, the last one times 2^64,
    under entries of 0, of at most 3 or of at most 20 bits.
    """
    diagonal = [rng.choice((1, 2, 6, 12, rng.randint(1, 2**12))) for _ in range(size)]
    diagonal[-1] *= 2**64
    bound = rng.choice((0, 3, 2**20))
    rows = [
        [diagonal[i] if i == j else rng.randint(-bound, bound) if j > i else 0 for j in range(size)]
        for i in range(size)
    ]
    return random_unimodular(rng, size) @ IntegerMatrix.from_rows(rows) @ random_unimodular(rng, size)
