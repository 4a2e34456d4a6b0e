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

from itertools import chain, compress, product

from .heegaard import HeegaardData, TbResult, tb_heegaard
from .lattice import IntegerMatrix, _Record, _check_int, _check_ints, _set


class PageSurface(_Record):
    """Compact oriented surface with boundary, the page of an open book.

    Both counts are plain ints; a bool or any other type raises TypeError.
    """

    def __init__(self, genus: int, boundary_components: int) -> None:
        if _check_int(genus) < 0:
            raise ValueError("genus must be nonnegative")
        if _check_int(boundary_components) < 1:
            raise ValueError("a page needs at least one boundary component")
        _set(self, "genus", genus)
        _set(self, "boundary_components", boundary_components)

    @property
    def arc_count(self) -> int:
        """Arcs in a cut system reducing the page to a disk."""
        return 2 * self.genus + self.boundary_components - 1


class DehnTwist(_Record):
    """One twist of the monodromy word, reduced to pairing data.

    sign +1 is a right-handed twist, -1 a left-handed one; arc_pairings
    lists the algebraic intersections of the twist curve with each cut
    arc.  A sign or pairing that is not a plain int, a bool included,
    raises TypeError.
    """

    def __init__(self, sign: int, arc_pairings: tuple[int, ...]) -> None:
        if _check_int(sign) not in (1, -1):
            raise ValueError("twist sign must be 1 or -1")
        _set(self, "sign", sign)
        _set(self, "arc_pairings", _check_ints(arc_pairings))


class PageKnot(_Record):
    """Knot on the page, recorded by its pairings with the cut arcs.

    A pairing that is not a plain int, a bool included, raises TypeError.
    """

    def __init__(self, arc_pairings: tuple[int, ...]) -> None:
        _set(self, "arc_pairings", _check_ints(arc_pairings))


def _skew_fault(entries: tuple[int, ...], count: int) -> tuple[int, int] | None:
    """The first (row, col), row >= col, where the row-major count x count
    block breaks entries[row][col] == -entries[col][row], scanning the
    columns in order, each from the diagonal down; None if it is skew.
    Only nonzero entries are compared with their mirrors: a diagonal
    position is its own mirror, so a nonzero diagonal entry is a fault."""
    faults = [
        (min(k, m), max(k, m))
        for k, m in compress(product(range(count), repeat=2), entries)
        if entries[k * count + m] != -entries[m * count + k]
    ]
    if not faults:
        return None
    col, row = min(faults)  # least column, then least row
    return row, col


class OpenBookPresentation(_Record):
    """A page together with an ordered word of Dehn twists.

    twist_pairings holds the pairwise algebraic intersections of the
    twist curves and must be skew-symmetric.
    """

    def __init__(
        self, page: PageSurface, twists: tuple[DehnTwist, ...], twist_pairings: IntegerMatrix
    ) -> None:
        twists = tuple(twists)
        count = len(twists)
        if (twist_pairings.rows, twist_pairings.cols) != (count, count):
            raise ValueError(
                f"twist_pairings must be {count}x{count} for {count} twists"
            )
        fault = _skew_fault(twist_pairings.entries, count)
        if fault is not None:
            row, col = fault
            raise ValueError(
                "twist_pairings diagonal must vanish"
                if row == col
                else "twist_pairings must be skew-symmetric"
            )
        for index, twist in enumerate(twists):
            if len(twist.arc_pairings) != page.arc_count:
                raise ValueError(
                    f"twist {index} pairs with {len(twist.arc_pairings)} arcs, "
                    f"page has {page.arc_count}"
                )
        _set(self, "page", page)
        _set(self, "twists", twists)
        _set(self, "twist_pairings", twist_pairings)


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
    return IntegerMatrix(arc_count, arc_count, tuple(list(chain.from_iterable(rows))))


def tb_open_book(open_book: OpenBookPresentation, knot: PageKnot) -> TbResult | None:
    """Thurston-Bennequin invariant of a knot on the page.

    With C the monodromy pairing matrix and A the knot's arc pairings,
    solves C @ E == d * A for the least d >= 1 and returns
    tb = -<E, A> / d; the value is independent of the choice of E
    exactly when A is orthogonal to the kernel of C, which the result
    records.  Returns None when no multiple of A lies in the image (the
    knot is not rationally nullhomologous and tb is undefined).

    This is the Heegaard formula -dividing/2 + <E, I> / d with I = -A and
    no dividing-set crossings, so tb_heegaard reads it off the book's
    view.
    """
    if len(knot.arc_pairings) != open_book.page.arc_count:
        raise ValueError("knot does not match the page")
    return tb_heegaard(_view(open_book, knot))


def _view(open_book: OpenBookPresentation, knot: PageKnot | None) -> HeegaardData:
    """The Heegaard data (C, A, -A) with no dividing-set crossings that
    every command reads, C from one sweep of the word; with knot None it
    has no knot either.  The knot must already pair with each cut arc."""
    pairings = None if knot is None else knot.arc_pairings
    return HeegaardData._derive(
        genus=open_book.page.arc_count,
        relations=monodromy_matrix(open_book),
        knot_generators=pairings,
        knot_relations=None if knot is None else tuple([-a for a in pairings]),
        dividing_intersections=0,
    )


def _tb_across_stabilization(
    view: HeegaardData, sign: int
) -> tuple[TbResult | None, TbResult | None]:
    """tb of an open book's knot before and after stabilize(open_book,
    knot, sign), from the book's view: the word is not swept.

    The new twist comes last and meets only the new arc, once, so the
    stabilized book's pairing matrix is diag(C, sign) and its knot pairs
    as (A, 1).  sign is a unit, so (A, 1) has A's order d, or is
    undefined with it, and diag(C, sign) maps (E, sign * d) to
    d * (A, 1): tb drops by sign, with no second factorization.  Only a
    knot that meets ker C has diag(C, sign) factored afresh, since its
    tb depends on the certificate that the pivots reach.  The view must
    have a knot, and sign is taken as stabilize accepted it.
    """
    before = tb_heegaard(view)
    if before is None:
        return None, None
    if before.kernel_orthogonal:
        return before, TbResult._derive(
            order=before.order,
            tb=before.tb - sign,
            certificate=before.certificate + (sign * before.order,),
            kernel_orthogonal=True,
        )
    rows = [row + [0] for row in view.relations.to_rows()] + [[0] * view.genus + [sign]]
    generators, relations = view.knot_generators + (1,), view.knot_relations + (-1,)
    padded = HeegaardData(view.genus + 1, IntegerMatrix.from_rows(rows), generators, relations)
    return before, tb_heegaard(padded)


def stabilize(
    open_book: OpenBookPresentation, knot: PageKnot, sign: int
) -> tuple[OpenBookPresentation, PageKnot]:
    """Stabilize the open book once, sliding the knot over the new handle.

    Adds a boundary component (so one new cut arc), appends a new
    +1 or -1 twist meeting only the new arc, once, and disjoint from
    every old twist curve; the knot runs once over the new arc.  tb of
    the stabilized knot drops by the sign, which must be the int 1 or -1:
    the new DehnTwist raises ValueError for any other int and TypeError
    for a bool or any other type.

    The old twists, the padded pairing block and the new book are derived
    from checked records: a trailing 0 and a zero row and column keep
    every invariant, so none is checked again.
    """
    if len(knot.arc_pairings) != open_book.page.arc_count:
        raise ValueError("knot does not match the page")
    page = PageSurface(open_book.page.genus, open_book.page.boundary_components + 1)
    twists = [
        DehnTwist._derive(sign=twist.sign, arc_pairings=twist.arc_pairings + (0,))
        for twist in open_book.twists
    ]
    twists.append(DehnTwist(sign, (0,) * open_book.page.arc_count + (1,)))
    # the old pairing block padded with a zero column and a zero row
    old_count = len(open_book.twists)
    count = old_count + 1
    old_entries = open_book.twist_pairings.entries
    entries = [0] * (count * count)
    for k in range(old_count):
        entries[k * count : k * count + old_count] = old_entries[
            k * old_count : (k + 1) * old_count
        ]
    stabilized = OpenBookPresentation._derive(
        page=page,
        twists=tuple(twists),
        twist_pairings=IntegerMatrix._derive(rows=count, cols=count, entries=tuple(entries)),
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
    if knot is not None and len(knot.arc_pairings) != open_book.page.arc_count:
        raise ValueError("knot does not match the page")
    return _doubled(_view(open_book, knot))


def _doubled(view: HeegaardData) -> HeegaardData:
    """to_heegaard of the open book whose view this is: -C, and I = A."""
    return HeegaardData._derive(
        genus=view.genus,
        relations=-view.relations,
        knot_generators=view.knot_generators,
        knot_relations=view.knot_generators,
        dividing_intersections=0,
    )
