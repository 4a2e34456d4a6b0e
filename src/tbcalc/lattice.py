"""Exact linear algebra over the integers, and the two questions tbcalc
asks of it.

Everything in this module runs on Python's arbitrary-precision ints, so
results are exact and nothing can overflow silently.  tbcalc asks two
questions of a square pairing matrix C and a knot's vectors A and I, and
each is one function here that factors C at most once:

* order_certificate: the least d >= 1 with C @ E == d * A, a checked
  certificate E, and whether I is orthogonal to ker C; or, with no
  factorization, a checked witness that no such d exists;
* cokernel_factors: the invariant factors of coker C and, for a knot
  that bounds, of coker [C; -I^T], by the route det C picks.

The tools below them: the Smith normal form D = U @ M @ V with
unimodular U and V, which one working matrix builds along with D, and
minimal_order, which reads an order and its witness off it; one
fraction-free (Bareiss) elimination, which gives the determinant, solves
a nonsingular square system, and, carried on past the columns with no
pivot and with its row transform kept, finds a left-kernel witness of
infinite order; and, for a nonsingular square matrix, invariant factors
by elimination modulo |det|, which keeps no transform.

Tuples throughout tbcalc are built from a list, a tuple or a slice, never
from a generator or a lazy iterator such as map, zip or chain.  CPython
allocates a tuple of unknown length at a guessed size and resizes it, so
when such a tuple of fewer than 20 entries dies it goes to the free list
of a size that no allocation draws from; each of those lists keeps up to
2000 tuples for the life of the process.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd, lcm, prod


def _check_int(value: object) -> int:
    # bool is an int subclass; reject it along with floats and friends
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a plain integer, got {value!r}")
    return value


def _check_ints(values: Iterable[int]) -> tuple[int, ...]:
    """values as a tuple; TypeError names the first entry that is not a
    plain int."""
    values = tuple(values)
    if set(map(type, values)) - {int}:
        # in order, so the first offending entry is the one reported
        for e in values:
            _check_int(e)
    return values


_set = object.__setattr__


class _Record:
    """Base of tbcalc's immutable records.  A record's __init__ stores each
    field once, in signature order, with _set; equality (NotImplemented
    against other classes), hash and repr follow those fields, and setting
    or deleting an attribute raises AttributeError."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _derive(cls, **fields: object):
        """A record of fields known to keep cls's invariants (derived from
        checked records, say int tuples padded with zeros, or checked by
        the document parser), stored in the signature order they are given
        without __init__'s checks."""
        record = object.__new__(cls)
        for name, value in fields.items():
            _set(record, name, value)
        return record


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product of two equal-length integer vectors.

    >>> dot((1, 2), (3, -1))
    1
    """
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


class IntegerMatrix(_Record):
    """Immutable integer matrix stored row-major.

    rows, cols and every entry are plain ints; a bool or any other type
    raises TypeError.
    """

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if _check_int(rows) < 0 or _check_int(cols) < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = _check_ints(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        """Build a matrix from an iterable of equal-length rows.

        >>> IntegerMatrix.from_rows([[1, 2], [3, 4]])[1, 0]
        3
        """
        row_list = [list(r) for r in rows]
        n_rows = len(row_list)
        n_cols = len(row_list[0]) if row_list else 0
        for r in row_list:
            if len(r) != n_cols:
                raise ValueError("rows must all have the same length")
        return cls(n_rows, n_cols, tuple(list(chain.from_iterable(row_list))))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        """Mutable row-of-lists copy."""
        return [list(self.row(i)) for i in range(self.rows)]

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple([-e for e in self.entries]))

    def __matmul__(
        self, other: IntegerMatrix | Sequence[int]
    ) -> IntegerMatrix | tuple[int, ...]:
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            # an entry in a zero row of self or a zero column of other is 0
            live_rows = [i for i in range(self.rows) if any(self.row(i))]
            live_cols = [j for j in range(other.cols) if any(other.column(j))]
            product = [0] * (self.rows * other.cols)
            for i in live_rows:
                for j in live_cols:
                    product[i * other.cols + j] = sum(self[i, k] * other[k, j] for k in range(self.cols))
            return IntegerMatrix(self.rows, other.cols, tuple(product))
        if isinstance(other, (tuple, list)):
            if self.cols != len(other):
                raise ValueError(
                    f"cannot apply {self.rows}x{self.cols} to a vector of length {len(other)}"
                )
            return tuple([dot(self.row(i), other) for i in range(self.rows)])
        return NotImplemented

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination.

        >>> IntegerMatrix.from_rows([[2, 1], [7, 4]]).determinant()
        1
        """
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        if self.rows == 0:
            return 1
        a = self.to_rows()
        return _bareiss(a, self.cols)[0] * a[-1][-1]


def _bareiss(a: list[list[int]], width: int, carry_on: bool = False) -> tuple[int, int]:
    """Fraction-free (Bareiss) forward elimination, in place, of the rows a
    of a matrix M with width columns, each row possibly extended by
    right-hand sides or by a row transform.

    Column by column, a row with a nonzero entry becomes the next pivot
    row and the rows below it are cleared; every entry stays a minor of
    the extended matrix, so each division is exact.  Returns (sign, rank):
    rank counts the pivot rows, which lead, and sign is that of the row
    permutation, or 0 once a column has no pivot.  The elimination stops
    at such a column, or with carry_on goes on to the next column with the
    same pivot row, and then every row from rank on is 0 on M.  For a
    square M with sign != 0, a[k][k] is the leading (k+1) x (k+1) minor of
    the row-permuted matrix, so a[-1][n - 1] is sign * det.
    """
    n = len(a)
    sign, prev, r = 1, 1, 0
    for k in range(width):
        if r == n:
            break
        if a[r][k] == 0:
            for i in range(r + 1, n):
                if a[i][k] != 0:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                if not carry_on:
                    return 0, r
                sign = 0
                continue
        pivot, top = a[r][k], a[r][k + 1 :]
        for i in range(r + 1, n):
            row, f = a[i], a[i][k]
            # exact division: every Bareiss minor is an integer
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], top)]
            row[k] = 0
        prev = pivot
        r += 1
    return sign, r


def fraction_free_solve(matrix: IntegerMatrix, target: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(delta, y) with delta = +-det M and M @ y == delta * target.

    One Bareiss elimination of [M | target], the one determinant() runs,
    then back-substitution, in which every division is exact: y is delta
    times the rational solution, an integer vector by Cramer's rule.  A
    singular M gives (0, ()).

    >>> fraction_free_solve(IntegerMatrix.from_rows([[2, 0], [0, 3]]), (1, 1))
    (6, (3, 2))
    """
    n = matrix.rows
    if matrix.cols != n or len(target) != n:
        raise ValueError(f"cannot solve a {matrix.rows}x{matrix.cols} system for {len(target)} entries")
    if n == 0:
        return 1, ()
    a = [row + [t] for row, t in zip(matrix.to_rows(), target)]
    delta = a[-1][n - 1] if _bareiss(a, n)[0] else 0
    if delta == 0:
        return 0, ()
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = (delta * row[n] - sum([row[j] * y[j] for j in range(i + 1, n)])) // row[i]
    return delta, tuple(y)


def _infinite_order_witness(matrix: IntegerMatrix, target: Sequence[int]) -> tuple[int, ...] | None:
    """A row u with u @ M == 0 and u . target != 0, or None when target
    lies in the rational column span of M.

    One Bareiss elimination of [M | target | I] that carries on past the
    columns with no pivot: each row from the rank on is 0 on M, and its
    I part is the combination u of the rows of M that gives it, so a
    nonzero target entry there makes that row's u a witness.

    >>> _infinite_order_witness(IntegerMatrix.from_rows([[1, 2], [2, 4]]), (1, 0))
    (-2, 1)
    """
    rows, cols = matrix.rows, matrix.cols
    a = [
        row + [t] + [int(i == k) for k in range(rows)]
        for i, (row, t) in enumerate(zip(matrix.to_rows(), target))
    ]
    _, rank = _bareiss(a, cols, carry_on=True)
    for row in a[rank:]:
        if row[cols]:
            return tuple(row[cols + 1 :])
    return None


class SmithDecomposition(_Record):
    """Smith normal form D = U @ M @ V of an integer matrix M.

    U and V are unimodular, D is diagonal with nonnegative entries, each
    diagonal entry divides the next, and rank counts the nonzero ones
    (always the leading ones); a rank that is not a plain int raises
    TypeError.
    """

    def __init__(self, U: IntegerMatrix, D: IntegerMatrix, V: IntegerMatrix, rank: int) -> None:
        _set(self, "U", U)
        _set(self, "D", D)
        _set(self, "V", V)
        _set(self, "rank", _check_int(rank))

    def diagonal(self) -> tuple[int, ...]:
        return tuple([self.D[i, i] for i in range(min(self.D.rows, self.D.cols))])


def smith_normal_form(matrix: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize over the integers, returning D = U @ M @ V.

    The work runs on one matrix [M | I] over [I | 0]: a row operation on M's
    rows also builds U on the right, and a column operation on M's columns,
    run down every row, also builds V below; D, U and V are sliced out at
    the end.  Pivots are a smallest nonzero entry of the active block by
    absolute value, remainders come from floor division, and signs are
    normalized once a pivot's row and column are clear.  Operations skip
    what a 0 leaves unchanged, in a row operation the added row's zero
    entries and in a column operation the rows with 0 in the pivot column,
    and a unit pivot skips the divisor-chain scan.  U @ M @ V is then
    compared in full with D; its products skip only zero rows and columns.

    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])).diagonal()
    (1, 6)
    """
    n_rows, n_cols = matrix.rows, matrix.cols
    w = [row + [int(i == k) for k in range(n_rows)] for i, row in enumerate(matrix.to_rows())]
    w += [[int(j == k) for k in range(n_cols)] + [0] * n_rows for j in range(n_cols)]

    def swap_cols(a: int, b: int) -> None:
        for r in w:
            r[a], r[b] = r[b], r[a]

    def add_row(src: int, dst: int, factor: int) -> None:
        row = w[dst]
        for k, y in enumerate(w[src]):
            if y:
                row[k] += factor * y

    limit = min(n_rows, n_cols)
    for t in range(limit):
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                e = w[i][j]
                if e != 0 and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            w[t], w[pi] = w[pi], w[t]
        if pj != t:
            swap_cols(t, pj)

        while True:
            for i in range(t + 1, n_rows):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    if q:
                        add_row(t, i, -q)
                    if w[i][t]:
                        # nonzero remainder is strictly smaller: new pivot
                        w[t], w[i] = w[i], w[t]
                        break
            else:
                for j in range(t + 1, n_cols):
                    if w[t][j]:
                        q = w[t][j] // w[t][t]
                        if q:
                            for r in w:
                                if r[t]:
                                    r[j] -= q * r[t]
                        if w[t][j]:
                            swap_cols(t, j)
                            break
                else:
                    # divisor chain: the pivot must divide the remaining block, as a unit does
                    if w[t][t] in (1, -1):
                        break
                    for i in range(t + 1, n_rows):
                        if any(e % w[t][t] for e in w[i][t + 1 : n_cols]):
                            add_row(i, t, 1)
                            break
                    else:
                        break
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]

    rank = sum(1 for i in range(limit) if w[i][i])
    result = SmithDecomposition(
        U=IntegerMatrix(n_rows, n_rows, tuple([e for r in w[:n_rows] for e in r[n_cols:]])),
        D=IntegerMatrix(n_rows, n_cols, tuple([e for r in w[:n_rows] for e in r[:n_cols]])),
        V=IntegerMatrix(n_cols, n_cols, tuple([e for r in w[n_rows:] for e in r[:n_cols]])),
        rank=rank,
    )
    if result.U @ matrix @ result.V != result.D:
        raise AssertionError("Smith normal form failed its re-multiplication check")
    return result


def minimal_order(
    smith: SmithDecomposition, target: Sequence[int]
) -> tuple[int, tuple[int, ...]] | None:
    """(d, x) for the least d >= 1 with M @ x == d * target over the integers.

    M is the matrix that smith factors.  Returns None when no positive
    multiple of the target lies in the column span (the target's class
    in the cokernel has infinite order).  Order 1 means M @ x == target
    itself is solvable, and x is then the solution whose kernel
    component vanishes in the Smith-transformed coordinates.

    >>> minimal_order(smith_normal_form(IntegerMatrix.from_rows([[2]])), (1,))
    (2, (1,))
    >>> minimal_order(smith_normal_form(IntegerMatrix.from_rows([[0]])), (1,)) is None
    True
    >>> m = IntegerMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
    >>> minimal_order(smith_normal_form(m), (2, 1, 1))
    (1, (2, 0, 1))
    """
    target = tuple([_check_int(b) for b in target])
    rows, cols = smith.D.rows, smith.D.cols
    if len(target) != rows:
        raise ValueError(f"target length {len(target)} != row count {rows}")
    transformed = smith.U @ target
    for i in range(smith.rank, rows):
        if transformed[i]:
            return None
    order = 1
    for i in range(smith.rank):
        s = smith.D[i, i]
        order = lcm(order, s // gcd(s, transformed[i]))
    y = [0] * cols
    for i in range(smith.rank):
        y[i] = order * transformed[i] // smith.D[i, i]
    return order, smith.V @ y


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s * a + t * b, for a, b >= 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s, s1, t, t1 = b, r, s1, s - q * s1, t1, t - q * t1
    return a, s, t


def invariant_factors_modulo(matrix: IntegerMatrix, modulus: int) -> list[int]:
    """Invariant factors of the cokernel of [M | modulus * I], one per row
    of M, each dividing the next.

    When the column span of M holds modulus * Z^rows, as it holds
    |det M| * Z^n for a nonsingular n x n M, that cokernel is M's own.
    No transform is kept: entries stay in [0, modulus), and unimodular
    2 x 2 gcd steps on rows, then on columns, clear each pivot's column
    and row; a gcd step on a pivot of 0 is a swap.  Once the column is
    clear the pivot p becomes gcd(p, modulus), since modulus * e_t is a
    relation, so each diagonal entry is the order of a cyclic summand and
    a row beyond the diagonal one of order modulus.  The orders are then
    normalized to a divisibility chain.

    >>> invariant_factors_modulo(IntegerMatrix.from_rows([[2, 4], [6, 3]]), 18)
    [1, 18]
    """
    m, n_rows, n_cols = modulus, matrix.rows, matrix.cols
    w = [[e % m for e in row] for row in matrix.to_rows()]
    orders = [m] * n_rows
    for t in range(min(n_rows, n_cols)):
        while True:
            top = w[t]
            for row in w[t + 1 :]:
                a, b = top[t], row[t]
                if not b:
                    continue
                if a and b % a == 0:
                    q = b // a
                    row[t:] = [(y - q * x) % m for x, y in zip(top[t:], row[t:])]
                else:
                    g, s, u = _xgcd(a, b)
                    a, b = a // g, b // g
                    tail = [(s * x + u * y) % m for x, y in zip(top[t:], row[t:])]
                    row[t:] = [(a * y - b * x) % m for x, y in zip(top[t:], row[t:])]
                    top[t:] = tail
            # the column is p * e_t, and with modulus * e_t it spans gcd(p, modulus) * e_t
            p = top[t] = gcd(top[t], m)
            for j in range(t + 1, n_cols):
                b = top[j]
                if b % p:
                    # a column gcd step: the pivot falls strictly, and column t fills again
                    g, s, u = _xgcd(p, b)
                    for r in w[t:]:
                        x, y = r[t], r[j]
                        r[t], r[j] = (s * x + u * y) % m, (p // g * y - b // g * x) % m
                    break
                # subtracting b / p times column t, which is p * e_t, clears this entry alone
                top[j] = 0
            else:
                break
        orders[t] = p
    for i in range(len(orders)):
        # Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b)
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] // g * orders[j]
    return orders


def _smith_factors(smith: SmithDecomposition) -> list[int]:
    """The Smith diagonal padded with zeros to one entry per row of M:
    the invariant factors of M's cokernel, 1 for a trivial summand and 0
    for a free one."""
    diagonal = list(smith.diagonal())
    return diagonal + [0] * (smith.D.rows - len(diagonal))


def order_certificate(
    relations: IntegerMatrix, generators: Sequence[int], pairing: Sequence[int]
) -> tuple[int, tuple[int, ...], bool] | None:
    """(d, E, kernel_orthogonal) for the least d >= 1 with C @ E == d * A,
    or None when no such d exists.

    C is relations, A generators and I pairing.  For a square C one
    fraction-free solve gives delta = +-det C and y = delta * C^-1 @ A.
    When C is singular or not square, one rank-revealing elimination
    looks for a witness of infinite order, a row u with u @ C == 0 and
    u . A != 0; one exists exactly when A lies outside the rational
    column span of C.  Both facts are checked and None is returned, with
    no Smith form.

    Otherwise one Smith form of C gives d and E (minimal_order) and a
    basis of ker C, the trailing columns of V; kernel_orthogonal says
    whether I has inner product 0 with each of them.  E is checked,
    C @ E == d * A, and when delta != 0 so is the Smith answer against
    Cramer's rule: d == |delta| / gcd(delta, y_1, ..., y_n), the least
    d that makes d * y / delta integral, and E == d * y / delta.  Each
    failed check raises AssertionError.

    >>> order_certificate(IntegerMatrix.from_rows([[4, 2], [2, 1]]), (2, 1), (1, -2))
    (1, (0, 1), False)
    >>> order_certificate(IntegerMatrix.from_rows([[4, 2], [2, 1]]), (1, 0), (1, 0)) is None
    True
    """
    generators = _check_ints(generators)
    if len(generators) != relations.rows:
        raise ValueError(f"target length {len(generators)} != row count {relations.rows}")
    square = relations.rows == relations.cols
    delta, y = fraction_free_solve(relations, generators) if square else (0, ())
    if delta == 0:
        witness = _infinite_order_witness(relations, generators)
        if witness is not None:
            image = [dot(witness, relations.column(j)) for j in range(relations.cols)]
            if any(image) or dot(witness, generators) == 0:
                raise AssertionError("the infinite-order witness failed its check u @ C == 0, u . A != 0")
            return None
    smith = smith_normal_form(relations)
    found = minimal_order(smith, generators)
    if found is None:
        raise AssertionError("the Smith form found infinite order where the elimination found none")
    order, solution = found
    if relations @ solution != tuple([order * a for a in generators]):
        raise AssertionError("the tb certificate failed its check C @ E == d * A")
    if delta and (
        order != abs(delta) // gcd(delta, *y) or [order * e for e in y] != [delta * e for e in solution]
    ):
        raise AssertionError(
            "the tb certificate failed its Cramer check d == |det C| / gcd(det C, y), E == d * y / det C"
        )
    kernel = range(smith.rank, smith.D.cols)
    return order, solution, all(dot(smith.V.column(j), pairing) == 0 for j in kernel)


def cokernel_factors(
    relations: IntegerMatrix, generators: tuple[int, ...] | None, pairing: tuple[int, ...] | None
) -> tuple[list[int], list[int] | None]:
    """Invariant factors of coker C and, for a knot that bounds, of
    coker [C; -I^T]; None in place of the second for a knot that does not
    bound and for no knot (generators and pairing None).

    C is the square relations, A generators and I pairing.  In [C; -I^T]
    a meridian generator joins those of C, and relation j reads as column
    j of C together with coefficient -I_j on the meridian.  In each list
    1 stands for a trivial summand and 0 for a free one; the list of C
    has one factor per generator.  One fraction-free solve gives
    delta = +-det C and y = delta * C^-1 @ A, and picks the route; no
    knot solves for A = 0.

    When det C != 0 no Smith form is made.  The knot bounds (order 1)
    when delta divides every y_i, and then x = y / delta is checked,
    C @ x == A.  The factors of C are invariant_factors_modulo(C, |det C|),
    checked to multiply to |det C|.  Those of [C; -I^T], for a bounding
    knot, are invariant_factors_modulo([C; -I^T], |det C|), whose last
    entry |det C| stands for the free summand and becomes 0; their
    product is checked to be gcd(|det C|, z_1, ..., z_n), the gcd of the
    n x n minors of [C; -I^T], with C^T @ z == delta' * I from a second
    solve.  Each failed check raises AssertionError.  They certify the
    group orders, not each invariant factor.

    When det C == 0, one Smith form U @ C @ V == D, re-multiplied whole,
    gives the factors of C and the verdict (order 1), and for a bounding
    knot those of the extended matrix: diag(U, 1) @ [C; -I^T] @ V ==
    [D; w] with w = -I^T @ V, and each unit d_j of D clears w_j by one
    row operation and splits off a trivial summand.  What is left is the
    block [diag(d_j); w_j] over the k columns with d_j != 1, at most
    (k+1) x k, and only that block is factored; its factors, without
    the trivial summands split off, are those of the extended matrix.

    >>> cokernel_factors(IntegerMatrix.from_rows([[2, 1], [1, 3]]), (3, 4), (1, 2))
    ([1, 5], [1, 1, 0])
    >>> cokernel_factors(IntegerMatrix.from_rows([[2, 0], [0, 0]]), (2, 0), (2, 0))
    ([2, 0], [2, 0, 0])
    """
    n = relations.rows
    delta, y = fraction_free_solve(relations, (0,) * n if generators is None else generators)
    if delta == 0:
        smith = smith_normal_form(relations)
        factors = _smith_factors(smith)
        found = None if generators is None else minimal_order(smith, generators)
        if found is None or found[0] != 1:
            return factors, None
        kept = [j for j, d in enumerate(factors) if d != 1]
        block = [[factors[i] if i == j else 0 for j in kept] for i in kept]
        block.append([-dot(pairing, smith.V.column(j)) for j in kept])
        return factors, _smith_factors(smith_normal_form(IntegerMatrix.from_rows(block)))
    modulus = abs(delta)
    factors = invariant_factors_modulo(relations, modulus)
    if prod(factors) != modulus:
        raise AssertionError("H1(M) failed its check: its order is not |det C|")
    if generators is None or any([e % delta for e in y]):
        return factors, None
    if relations @ [e // delta for e in y] != generators:
        raise AssertionError("the nullhomology verdict failed its check C @ x == A")
    extended = IntegerMatrix(n + 1, n, relations.entries + tuple([-e for e in pairing]))
    torsion = invariant_factors_modulo(extended, modulus)[:-1]
    transposed = IntegerMatrix(n, n, tuple([e for j in range(n) for e in relations.column(j)]))
    _, minors = fraction_free_solve(transposed, pairing)
    if prod(torsion) != gcd(modulus, *minors):
        raise AssertionError(
            "H1 of the exterior failed its check: its torsion order is not the gcd of the n x n minors of [C; -I^T]"
        )
    return factors, torsion + [0]
