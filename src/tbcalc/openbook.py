"""Open books presented by abstract page data.

A page enters only through its genus and boundary count; the arcs
a_1..a_n of a cut system reducing the page to a disk (n = 2g + r - 1),
the twist curves of the monodromy word, and the knot all enter through
algebraic pairing numbers, never through an embedding.  The monodromy
acts on a class alpha by alpha -> alpha + sign * (T . alpha) * T for
each twist T in word order; iterating this over the cut arcs produces
the pairing matrix C that drives every downstream computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import add

from .heegaard import HeegaardData, TbResult, tb_heegaard
from .lattice import IntegerMatrix

__all__ = [
    "PageSurface",
    "DehnTwist",
    "OpenBookPresentation",
    "PageKnot",
    "monodromy_matrix",
    "tb_open_book",
    "stabilize",
    "to_heegaard",
]


@dataclass(frozen=True)
class PageSurface:
    """Compact oriented surface with boundary, the page of an open book."""

    genus: int
    boundary_components: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.boundary_components < 1:
            raise ValueError("a page needs at least one boundary component")

    @property
    def arc_count(self) -> int:
        """Arcs in a cut system reducing the page to a disk."""
        return 2 * self.genus + self.boundary_components - 1


@dataclass(frozen=True)
class DehnTwist:
    """One twist of the monodromy word, reduced to pairing data.

    sign +1 is a right-handed twist, -1 a left-handed one; arc_pairings
    lists the algebraic intersections of the twist curve with each cut
    arc.
    """

    sign: int
    arc_pairings: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("twist sign must be 1 or -1")
        object.__setattr__(self, "arc_pairings", tuple(self.arc_pairings))


@dataclass(frozen=True)
class PageKnot:
    """Knot on the page, recorded by its pairings with the cut arcs."""

    arc_pairings: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arc_pairings", tuple(self.arc_pairings))


class SkewSymmetryError(ValueError):
    """twist_pairings[row][col] differs from -twist_pairings[col][row].

    row >= col; the pair reported is the first met scanning the columns
    in order, each from the diagonal down.
    """

    def __init__(self, row: int, col: int):
        super().__init__(
            "twist_pairings diagonal must vanish"
            if row == col
            else "twist_pairings must be skew-symmetric"
        )
        self.row = row
        self.col = col


@dataclass(frozen=True)
class OpenBookPresentation:
    """A page together with an ordered word of Dehn twists.

    twist_pairings holds the pairwise algebraic intersections of the
    twist curves and must be skew-symmetric.
    """

    page: PageSurface
    twists: tuple[DehnTwist, ...]
    twist_pairings: IntegerMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "twists", tuple(self.twists))
        count = len(self.twists)
        if (self.twist_pairings.rows, self.twist_pairings.cols) != (count, count):
            raise ValueError(
                f"twist_pairings must be {count}x{count} for {count} twists"
            )
        # row k from the diagonal rightwards plus column k from the
        # diagonal down vanishes exactly when the pairs (k, m >= k) are skew
        pairings = self.twist_pairings.entries
        for k in range(count):
            start = k * count + k
            upper = pairings[start : (k + 1) * count]
            lower = pairings[start::count]
            if any(map(add, upper, lower)):
                offset = next(j for j, s in enumerate(map(add, upper, lower)) if s)
                raise SkewSymmetryError(k + offset, k)
        for index, twist in enumerate(self.twists):
            if len(twist.arc_pairings) != self.page.arc_count:
                raise ValueError(
                    f"twist {index} pairs with {len(twist.arc_pairings)} arcs, "
                    f"page has {self.page.arc_count}"
                )

    @property
    def twist_count(self) -> int:
        return len(self.twists)


def monodromy_matrix(open_book: OpenBookPresentation) -> IntegerMatrix:
    """Pairing matrix of the monodromy word acting on the cut arcs.

    Entry (i, j) pairs the image of arc a_j under the full word with arc
    a_i; disjoint arcs contribute nothing themselves, so only the twist
    coefficients of the image matter.  An empty word gives the zero
    matrix.

    One forward pass over the word: twist k sets the k-th coefficient of
    every arc's image at once, to the vector
    sign_k * (P_k + sum over m < k of (T_k . T_m) * coefficients_m),
    where P_k holds the twist's arc pairings.  In matrix form this is the
    forward substitution C = P^T (I - S L)^-1 S P, with S the signs and
    L the strictly lower triangle of the twist pairings; each nonzero
    pairing costs one row operation of length n.

    >>> annulus = OpenBookPresentation(
    ...     PageSurface(0, 2),
    ...     (DehnTwist(1, (-1,)),),
    ...     IntegerMatrix.from_rows([[0]]),
    ... )
    >>> monodromy_matrix(annulus).to_rows()
    [[1]]
    """
    arc_count = open_book.page.arc_count
    count = len(open_book.twists)
    pairings = open_book.twist_pairings.entries
    rows = [[0] * arc_count for _ in range(arc_count)]
    coefficients: list[list[int]] = []
    for k, twist in enumerate(open_book.twists):
        image = list(twist.arc_pairings)
        lower = pairings[k * count : k * count + k]
        for m in compress(range(k), lower):
            weight = lower[m]
            image = [a + weight * b for a, b in zip(image, coefficients[m])]
        if twist.sign < 0:
            image = [-a for a in image]
        coefficients.append(image)
        for i, weight in enumerate(twist.arc_pairings):
            if weight:
                rows[i] = [c + weight * a for c, a in zip(rows[i], image)]
    return IntegerMatrix(arc_count, arc_count, tuple(chain.from_iterable(rows)))


def tb_open_book(open_book: OpenBookPresentation, knot: PageKnot) -> TbResult | None:
    """Thurston-Bennequin invariant of a knot on the page.

    With C the monodromy pairing matrix and A the knot's arc pairings,
    solves C @ E == d * A for the least d >= 1 and returns
    tb = -<E, A> / d; the value is independent of the choice of E
    exactly when A is orthogonal to the kernel of C, which the result
    records.  Returns None when no multiple of A lies in the image (the
    knot is not rationally nullhomologous and tb is undefined).

    This is the Heegaard formula -dividing/2 + <E, I> / d with I = -A and
    no dividing-set crossings, so tb_heegaard assembles it.  It keeps C
    rather than going through to_heegaard, whose -C can reduce to another
    certificate in E + ker C when C is singular.
    """
    pairings = knot.arc_pairings
    if len(pairings) != open_book.page.arc_count:
        raise ValueError(
            f"knot pairs with {len(pairings)} arcs, page has "
            f"{open_book.page.arc_count}"
        )
    negated = tuple(-a for a in pairings)
    return tb_heegaard(
        HeegaardData(len(pairings), monodromy_matrix(open_book), pairings, negated)
    )


def stabilize(
    open_book: OpenBookPresentation, knot: PageKnot, sign: int
) -> tuple[OpenBookPresentation, PageKnot]:
    """Stabilize the open book once, sliding the knot over the new handle.

    Adds a boundary component (so one new cut arc), appends a new
    +1 or -1 twist meeting only the new arc, once, and disjoint from
    every old twist curve; the knot runs once over the new arc.  tb of
    the stabilized knot drops by the sign.
    """
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be 1 or -1")
    if len(knot.arc_pairings) != open_book.page.arc_count:
        raise ValueError("knot does not match the page")
    page = PageSurface(open_book.page.genus, open_book.page.boundary_components + 1)
    twists = tuple(
        DehnTwist(twist.sign, twist.arc_pairings + (0,)) for twist in open_book.twists
    ) + (DehnTwist(sign, (0,) * open_book.page.arc_count + (1,)),)
    old_count = len(open_book.twists)
    pairing_rows = [
        list(open_book.twist_pairings.row(k)) + [0] for k in range(old_count)
    ]
    pairing_rows.append([0] * (old_count + 1))
    stabilized = OpenBookPresentation(
        page=page,
        twists=twists,
        twist_pairings=IntegerMatrix.from_rows(pairing_rows),
    )
    return stabilized, PageKnot(knot.arc_pairings + (1,))


def to_heegaard(
    open_book: OpenBookPresentation, knot: PageKnot | None
) -> HeegaardData:
    """Reinterpret the open book as Heegaard data for the same manifold.

    Doubling the page gives a Heegaard surface; the orientation reversal
    on the second copy negates the pairing matrix, the knot stays in one
    page so it misses the dividing set, and both knot vectors coincide
    with the arc pairings.  With knot None the data has no knot either.
    """
    size = open_book.page.arc_count
    if knot is not None and len(knot.arc_pairings) != size:
        raise ValueError("knot does not match the page")
    pairings = None if knot is None else knot.arc_pairings
    return HeegaardData(
        genus=size,
        relations=-monodromy_matrix(open_book),
        knot_generators=pairings,
        knot_relations=pairings,
    )
