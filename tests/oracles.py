"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms than the
library: determinants by cofactor expansion instead of fraction-free
elimination, solvability by rational elimination plus bounded lattice
search instead of Smith reduction, the monodromy pairing matrix twist by
twist and arc by arc, or by subsequence expansion, instead of one forward
substitution.  Agreement between the two routes is the point, so nothing
in this module may import from tbcalc; the monodromy oracles only read the
attributes of the open book they are given, document_to_obj only those
of the document, and smith_factors only those of the Smith form.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

Rows = list[list[int]]


class SearchBudgetExceeded(Exception):
    """The bounded search for this instance is too large to run honestly."""


def cofactor_det(rows: Rows) -> int:
    """Determinant by first-row cofactor expansion (exponential, tiny inputs)."""
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in rows[1:]]
        term = rows[0][col] * cofactor_det(minor)
        total += -term if col % 2 else term
    return total


def matmul(left: Rows, right: Rows, cols: int) -> Rows:
    """Product of two matrices given as lists of rows, entry by entry by the
    triple loop.  cols is the column count of right, which its rows cannot
    carry when it has none."""
    product = [[0] * cols for _ in left]
    for i, row in enumerate(left):
        for j in range(cols):
            for k, entry in enumerate(row):
                product[i][j] += entry * right[k][j]
    return product


def rational_solution(rows: Rows, target) -> tuple[list[Fraction], list[int]] | None:
    """Gauss-Jordan over Q.

    Returns (particular solution with free variables set to 0, pivot columns),
    or None when the system is inconsistent even over the rationals.
    """
    height = len(rows)
    width = len(rows[0]) if height else 0
    aug = [
        [Fraction(value) for value in row] + [Fraction(t)]
        for row, t in zip(rows, target)
    ]
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, height) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [value / scale for value in aug[rank]]
        for i in range(height):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
        if rank == height:
            break
    for i in range(rank, height):
        if aug[i][width]:
            return None
    solution = [Fraction(0)] * width
    for i, col in enumerate(pivots):
        solution[col] = aug[i][width]
    return solution, pivots


def rational_rank(rows: Rows) -> int:
    if not rows:
        return 0
    result = rational_solution(rows, [0] * len(rows))
    assert result is not None
    return len(result[1])


def smith_factors(smith) -> list[int]:
    """The diagonal of a Smith form D = U @ M @ V padded with zeros to one
    entry per row of M: the invariant factors of M's cokernel, 1 for a
    trivial summand and 0 for a free one.  The reference against which
    the modular routes of tbcalc.lattice are compared."""
    diagonal = list(smith.diagonal())
    return diagonal + [0] * (smith.D.rows - len(diagonal))


def max_abs_minor(rows: Rows) -> int:
    """Largest absolute determinant over all square submatrices (at least 1)."""
    height = len(rows)
    width = len(rows[0]) if height else 0
    best = 1
    for size in range(1, min(height, width) + 1):
        for row_pick in itertools.combinations(range(height), size):
            for col_pick in itertools.combinations(range(width), size):
                sub = [[rows[i][j] for j in col_pick] for i in row_pick]
                best = max(best, abs(cofactor_det(sub)))
    return best


def _box_search(rows: Rows, target, bound: int) -> tuple[int, ...] | None:
    """Meet-in-the-middle search for an integer solution with |x_i| <= bound."""
    height = len(rows)
    width = len(rows[0]) if height else 0
    if width == 0:
        return () if all(t == 0 for t in target) else None
    half = width // 2
    values = range(-bound, bound + 1)
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for combo in itertools.product(values, repeat=half):
        key = tuple(
            sum(rows[i][j] * combo[j] for j in range(half)) for i in range(height)
        )
        table.setdefault(key, combo)
    for combo in itertools.product(values, repeat=width - half):
        key = tuple(
            target[i] - sum(rows[i][half + k] * combo[k] for k in range(width - half))
            for i in range(height)
        )
        found = table.get(key)
        if found is not None:
            return found + combo
    return None


def brute_force_solution(rows: Rows, target) -> tuple[int, ...] | None:
    """Integer solution of rows @ x == target, or a certified None.

    Rational inconsistency and full column rank settle most instances
    directly.  Otherwise an integer solution, if any exists, exists inside
    the box |x_i| <= (n + 1) * D where D is the largest absolute minor of
    the augmented matrix, so searching that box is a complete decision
    procedure.  Raises SearchBudgetExceeded rather than shrinking the box.
    """
    height = len(rows)
    width = len(rows[0]) if height else 0
    rational = rational_solution(rows, target)
    if rational is None:
        return None
    solution, pivots = rational
    if len(pivots) == width:
        if all(value.denominator == 1 for value in solution):
            witness = tuple(int(value) for value in solution)
            _check_solves(rows, target, witness)
            return witness
        return None
    augmented = [list(row) + [t] for row, t in zip(rows, target)]
    bound = (width + 1) * max_abs_minor(augmented)
    cost = (2 * bound + 1) ** (width - width // 2)
    if cost > 2_000_000:
        raise SearchBudgetExceeded(f"box bound {bound} too large for width {width}")
    witness = _box_search(rows, target, bound)
    if witness is not None:
        _check_solves(rows, target, witness)
    return witness


def _check_solves(rows: Rows, target, witness) -> None:
    for row, expected in zip(rows, target):
        assert sum(a * x for a, x in zip(row, witness)) == expected


def brute_force_min_order(
    rows: Rows, target, limit: int = 50
) -> tuple[int, tuple[int, ...]] | None:
    """Smallest d in 1..limit with rows @ x == d * target solvable.

    Returns None exactly when no d works at all: rational inconsistency
    rules out every multiple at once.  Rational solvability guarantees some
    finite d exists, so exhausting the limit without a hit is a budget
    problem, not a verdict, and raises.
    """
    if rational_solution(rows, target) is None:
        return None
    for order in range(1, limit + 1):
        scaled = [order * t for t in target]
        witness = brute_force_solution(rows, scaled)
        if witness is not None:
            return order, witness
    raise SearchBudgetExceeded(f"minimal order exceeds search limit {limit}")


REFERENCE_TWIST_LIMIT = 20


def twist_image(class_coefficients, twist_index: int, open_book):
    """Apply one twist of the word to a class a_j + sum_m v_m T_m.

    Classes reachable from a cut arc stay in the span of that arc and
    the twist curves, so a class is encoded as (base arc index, twist
    coefficients).  The twist along T_k adds sign * (T_k . class) to the
    k-th coefficient and changes nothing else.
    """
    arc_index, coefficients = class_coefficients
    coefficients = tuple(coefficients)
    twists = open_book.twists
    if not 0 <= twist_index < len(twists):
        raise IndexError(f"twist index {twist_index} out of range")
    if not 0 <= arc_index < open_book.page.arc_count:
        raise IndexError(f"arc index {arc_index} out of range")
    if len(coefficients) != len(twists):
        raise ValueError("need one coefficient per twist")
    twist = twists[twist_index]
    pairing = twist.arc_pairings[arc_index] + sum(
        value * open_book.twist_pairings[twist_index, m]
        for m, value in enumerate(coefficients)
        if value
    )
    updated = list(coefficients)
    updated[twist_index] += twist.sign * pairing
    return (arc_index, tuple(updated))


def monodromy_by_steps(open_book) -> Rows:
    """The pairing matrix C by applying twist_image arc by arc, twist by twist.

    Entry (i, j) pairs the image of arc a_j with arc a_i.  Costs
    n * l^2 pairing lookups, so it reaches long words the expansion
    below cannot.
    """
    arc_count = open_book.page.arc_count
    twist_count = len(open_book.twists)
    images = []
    for j in range(arc_count):
        state = (j, (0,) * twist_count)
        for k in range(twist_count):
            state = twist_image(state, k, open_book)
        images.append(state[1])
    return [
        [
            sum(
                images[j][m] * open_book.twists[m].arc_pairings[i]
                for m in range(twist_count)
            )
            for j in range(arc_count)
        ]
        for i in range(arc_count)
    ]


def monodromy_matrix_reference(open_book) -> Rows:
    """The same pairing matrix by brute-force expansion.

    Sums over every nonempty increasing subsequence k_1 < ... < k_m of
    the word: the subsequence contributes
    sign_1 * ... * sign_m
    * (T_km . T_km-1) * ... * (T_k2 . T_k1)
    * (T_k1 . a_j) * (T_km . a_i)
    to entry (i, j).  Exponential in the word length, hence guarded, and
    deliberately free of any sweep logic.
    """
    twist_count = len(open_book.twists)
    if twist_count > REFERENCE_TWIST_LIMIT:
        raise ValueError(
            f"reference expansion is limited to {REFERENCE_TWIST_LIMIT} twists"
        )
    arc_count = open_book.page.arc_count
    rows = [[0] * arc_count for _ in range(arc_count)]
    for length in range(1, twist_count + 1):
        for chain in itertools.combinations(range(twist_count), length):
            factor = 1
            for k in chain:
                factor *= open_book.twists[k].sign
            for previous, current in zip(chain, chain[1:]):
                factor *= open_book.twist_pairings[current, previous]
                if factor == 0:
                    break
            if factor == 0:
                continue
            first = open_book.twists[chain[0]].arc_pairings
            last = open_book.twists[chain[-1]].arc_pairings
            for i in range(arc_count):
                if last[i]:
                    weight = factor * last[i]
                    for j in range(arc_count):
                        rows[i][j] += weight * first[j]
    return rows


def skew_fault(entries, count: int) -> tuple[int, int] | None:
    """The first (row, col), row >= col, at which the row-major count x
    count block breaks entries[row][col] == -entries[col][row], scanning
    the columns in order, each from the diagonal down; None when the
    block is skew-symmetric.

    Row k from the diagonal rightwards plus column k from the diagonal
    down vanishes exactly when the pairs (k, m >= k) are skew.
    """
    for k in range(count):
        start = k * count + k
        upper = entries[start : (k + 1) * count]
        lower = entries[start::count]
        for offset, (a, b) in enumerate(zip(upper, lower)):
            if a + b:
                return k + offset, k
    return None


def document_to_obj(document) -> dict:
    """The document as the JSON value parse_document accepts: dicts,
    lists and ints, keys in schema order.

    Built by generic code, row by row, so that ``json.dumps(obj,
    indent=2)`` is an independent reference for the library's schema
    writer.
    """
    obj = {"mode": "openbook" if document.open_book is not None else "heegaard"}
    if document.name is not None:
        obj["name"] = document.name
    if document.description is not None:
        obj["description"] = document.description
    open_book = document.open_book
    if open_book is not None:
        obj["page"] = {
            "genus": open_book.page.genus,
            "boundary": open_book.page.boundary_components,
        }
        obj["twists"] = [
            {"sign": twist.sign, "arcs": list(twist.arc_pairings)}
            for twist in open_book.twists
        ]
        obj["twist_pairings"] = _rows(open_book.twist_pairings)
        if document.knot is not None:
            obj["knot"] = {"arcs": list(document.knot.arc_pairings)}
        return obj
    heegaard = document.heegaard
    obj["genus"] = heegaard.genus
    obj["C"] = _rows(heegaard.relations)
    if heegaard.knot_generators is not None:
        obj["A"] = list(heegaard.knot_generators)
        obj["I"] = list(heegaard.knot_relations)
        obj["dividing"] = heegaard.dividing_intersections
    return obj


def _rows(matrix) -> Rows:
    cols = matrix.cols
    return [list(matrix.entries[i * cols : (i + 1) * cols]) for i in range(matrix.rows)]


def dumps_document_reference(document) -> str:
    """What the document writer must write: ``json.dumps`` of
    document_to_obj with indent 2, plus a trailing newline."""
    return json.dumps(document_to_obj(document), indent=2) + "\n"
