"""Exact linear algebra over the integers, and the two questions tbcalc
asks of it.

Everything in this module runs on Python's arbitrary-precision ints, so
results are exact and nothing can overflow silently.  tbcalc asks two
questions of a pairing matrix C and a knot's vectors A and I, and each
is one function here whose docstring gives its route and certificates:

* order_certificate: the least d >= 1 with C @ E == d * A, a checked
  certificate E, and whether I is orthogonal to ker C, from one Bareiss
  elimination of [C | A] and one Smith form of C; or, with no Smith form,
  a checked rank certificate that no such d exists;
* cokernel_factors: the invariant factors of coker C and, for a knot
  that bounds, of coker [C; -I^T], by elimination modulo a checked
  nonzero minor, with no Smith form.

Tuples throughout tbcalc are built from a list, a tuple or a slice, never
from a generator or a lazy iterator such as map, zip or chain.  CPython
allocates a tuple of unknown length at a guessed size and resizes it, so
when such a tuple of fewer than 20 entries dies it goes to the free list
of a size that no allocation draws from; each of those lists keeps up to
2000 tuples for the life of the process.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, compress
from math import gcd, lcm
from operator import mul


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
    return sum(map(mul, u, v))


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
            width = other.cols
            columns = [other.entries[j::width] for j in range(width)]
            # an entry in a zero row of self or a zero column of other is 0
            live_cols = [j for j in range(width) if any(columns[j])]
            product = [0] * (self.rows * width)
            for i in range(self.rows):
                row = self.entries[i * self.cols : (i + 1) * self.cols]
                if any(row):
                    for j in live_cols:
                        product[i * width + j] = sum(map(mul, row, columns[j]))
            return IntegerMatrix(self.rows, width, tuple(product))
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


def _bareiss(a: list[list[int]], width: int, carry_on: bool = False) -> tuple[int, list[int]]:
    """Fraction-free (Bareiss) forward elimination, in place, of the rows a
    of a matrix M with width columns, each row possibly extended by
    right-hand sides or by a row transform.

    Column by column, a row with a nonzero entry becomes the next pivot
    row and the rows below it are cleared; every entry stays a minor of
    the extended matrix, so each division is exact.  Rows are swapped and
    changed in place, never replaced.  Returns (sign, pivots): pivots lists
    the columns of the pivot rows, which lead, and sign is that of the row
    permutation, or 0 once a column has no pivot.  The elimination stops
    at such a column, or with carry_on goes on to the next column with the
    same pivot row, and then every row from the rank on is 0 on M.  For a
    square M with sign != 0, a[k][k] is the leading (k+1) x (k+1) minor of
    the row-permuted matrix, so a[-1][n - 1] is sign * det.
    """
    n = len(a)
    sign, prev, pivots = 1, 1, []
    for k in range(width):
        r = len(pivots)
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
                    return 0, pivots
                sign = 0
                continue
        pivot, top = a[r][k], a[r][k + 1 :]
        for i in range(r + 1, n):
            row, f = a[i], a[i][k]
            # exact division: every Bareiss minor is an integer
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], top)]
            row[k] = 0
        prev = pivot
        pivots.append(k)
    return sign, pivots


def _unit(i: int, size: int, one: int = 1) -> list[int]:
    """Row i of the size x size identity, with one for its 1: 1 % m for
    the identity modulo m, which is 0 modulo 1."""
    return [0] * i + [one] + [0] * (size - i - 1)


def _kernel(rows: list[list[int]], width: int) -> tuple[list[int], list[int], int, list[list[int]]]:
    """(P, Q, pivot, kernel) from one Bareiss elimination, in place, of the
    matrix M whose rows are rows, width entries each, carried on past the
    columns with no pivot.  P lists its pivot columns and Q, sorted, the
    rows that became pivot rows; pivot, the last one, is +-det M[Q, P] (1
    for rank 0).  For each column j off P, back-substitution gives the x in
    kernel, in the order of j: M @ x == 0, and off P, x is pivot at j and 0
    elsewhere; every division is exact, since x restricted to P is pivot
    times the rational solution of M[Q, P] @ z == -M[Q, j].

    >>> _kernel([[1, 2], [2, 4]], 2)
    ([0], [0], 1, [[-2, 1]])
    """
    # the elimination swaps rows but never replaces one, so a row keeps its identity
    index = {id(row): i for i, row in enumerate(rows)}
    _, pivots = _bareiss(rows, width, carry_on=True)
    rank = len(pivots)
    pivot = rows[rank - 1][pivots[-1]] if rank else 1
    # row i of the echelon form on the pivot columns after its own
    later = [[rows[i][k] for k in pivots[i + 1 :]] for i in range(rank)]
    named = set(pivots)
    kernel = []
    for j in range(width):
        if j in named:
            continue
        y = [0] * rank
        for i in range(rank - 1, -1, -1):
            y[i] = (-pivot * rows[i][j] - sum(map(mul, later[i], y[i + 1 :]))) // rows[i][pivots[i]]
        x = [0] * width
        x[j] = pivot
        for k, e in zip(pivots, y):
            x[k] = e
        kernel.append(x)
    return pivots, sorted([index[id(row)] for row in rows[:rank]]), pivot, kernel


def _left_kernel(matrix: IntegerMatrix) -> tuple[list[int], list[int], int, list[list[int]]]:
    """_kernel of M^T: P lists rows of M and Q columns of M, and u @ M == 0
    for each u in kernel."""
    return _kernel([list(matrix.column(j)) for j in range(matrix.cols)], matrix.rows)


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


def _diagonalize_modulo(w: list[list[int]], n_rows: int, n_cols: int, m: int) -> list[int]:
    """Diagonalize the leading n_rows x n_cols block of w modulo m, in place,
    by 2 x 2 steps of determinant 1, and return its diagonal.

    Row steps act on the whole of the first n_rows rows, column steps on
    the first n_cols entries of every row from the pivot's on; so with w
    = [M | I] over [I | 0] the rows of M carry U on the right and V lies
    below, and U @ M @ V == D (mod m) at the end.  Unimodular gcd steps on
    rows clear each pivot's column; a gcd step on a pivot of 0 is a swap.
    Then each entry b of the pivot row is cleared by subtracting q times
    column t, which is p * e_t, with q = (b/g) * (p/g)^-1 mod (m/g) and
    g = gcd(p, m), so that q * p == b (mod m).  When g does not divide b,
    a gcd step on columns lowers gcd(p, m) strictly, and column t fills
    again.
    """
    diagonal = []
    for t in range(min(n_rows, n_cols)):
        while True:
            top = w[t]
            for row in w[t + 1 : n_rows]:
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
            p = top[t]
            g = gcd(p, m)
            for j in range(t + 1, n_cols):
                b = top[j]
                if b % g:
                    h, s, u = _xgcd(p, b)
                    for r in w[t:]:
                        x, y = r[t], r[j]
                        r[t], r[j] = (s * x + u * y) % m, (p // h * y - b // h * x) % m
                    break
                if b:
                    q = b // g * pow(p // g, -1, m // g)
                    for r in w[n_rows:]:
                        r[j] = (r[j] - q * r[t]) % m
                top[j] = 0
            else:
                break
        diagonal.append(p)
    return diagonal


def _chain(orders: list[int]) -> list[int]:
    """The orders of cyclic summands, normalized in place to a divisibility
    chain of as many entries."""
    for i in range(len(orders)):
        if orders[i] == 1:
            continue
        # Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b)
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] // g * orders[j]
    return orders


def _combine(row: list[int], rows: list[list[int]], width: int) -> list[int]:
    """row @ rows, for rows of width entries: the sum of the nonzero rows
    that the nonzero entries of row name, each times its entry."""
    total = [0] * width
    for k in compress(range(len(row)), row):
        e, other = row[k], rows[k]
        if any(other):
            total = [x + e * y for x, y in zip(total, other)]
    return total


def _transforms_modulo(relations: list[list[int]], cols: int, m: int) -> tuple:
    """(U, V, diagonal) with U @ M @ V == diag(diagonal) (mod m), for the
    matrix M of the rows relations and cols columns, from
    _diagonalize_modulo on [M | I] over [I | 0]."""
    rows = len(relations)
    w = [[e % m for e in row] + _unit(i, rows, 1 % m) for i, row in enumerate(relations)]
    w += [_unit(j, cols, 1 % m) for j in range(cols)]
    diagonal = _diagonalize_modulo(w, rows, cols, m)
    return [row[cols:] for row in w[:rows]], w[rows:], diagonal


def _modular_certificate(matrix: IntegerMatrix) -> tuple:
    """(P, Q, kernel, m, U, V, diagonal), steps 1 to 3 of cokernel_factors
    for M: P, Q and kernel from _left_kernel, m = |det M[P, Q]|, its last
    pivot, and U @ M @ V == diag(diagonal) (mod m)."""
    pivot_rows, pivot_cols, pivot, kernel = _left_kernel(matrix)
    m = abs(pivot)
    return (pivot_rows, pivot_cols, kernel, m) + _transforms_modulo(matrix.to_rows(), matrix.cols, m)


def _is_diagonal_modulo(
    U: list[list[int]], M: list[list[int]], V: list[list[int]], diagonal: list[int], m: int, cols: int
) -> bool:
    """Whether U @ M @ V == diag(diagonal) (mod m), for M given by its rows
    and cols columns; d_i is 0 past the diagonal."""
    left = [[x % m for x in _combine(row, M, cols)] for row in U]
    product = [[x % m for x in _combine(row, V, cols)] for row in left]
    padded = diagonal + [0] * (len(M) - len(diagonal))
    return product == [[d % m if j == i else 0 for j in range(cols)] for i, d in enumerate(padded)]


def _check_kernel(
    kernel: list[list[int]], vectors: Sequence[Sequence[int]], width: int, pivots: list[int], check: str
) -> None:
    """Check rows of _kernel against the vectors, width entries each, that
    they combine: u @ vectors == 0 from u's nonzero entries (named check),
    and off pivots each u has one nonzero entry, at an index of its own,
    so the rows are independent.  A failed check raises AssertionError."""
    if any([any(_combine(u, vectors, width)) for u in kernel]):
        raise AssertionError(f"a kernel row failed its check {check}")
    named = set(pivots)
    others = [i for i in range(len(vectors)) if i not in named]
    if sorted([[i for i in others if u[i]] for u in kernel]) != [[i] for i in others]:
        raise AssertionError("the kernel rows failed their check of independence off the pivots")


def _check_minor(
    rows: Sequence[Sequence[int]], row_indices: list[int], col_indices: list[int], m: int, check: str
) -> None:
    """Check m == |det| != 0 of the minor on row_indices and col_indices of
    the matrix whose rows are rows, computed again; a failure raises
    AssertionError naming check."""
    minor = IntegerMatrix.from_rows([[rows[i][j] for j in col_indices] for i in row_indices])
    if len(row_indices) != len(col_indices) or m == 0 or abs(minor.determinant()) != m:
        raise AssertionError(f"the pivot minor failed its check {check}")


def _check_modular(matrix: IntegerMatrix, certificate: tuple) -> None:
    """Check a certificate of _modular_certificate as steps 1 to 3 of
    cokernel_factors say; a failed check raises AssertionError naming it.
    U and V are invertible modulo m by construction."""
    pivot_rows, pivot_cols, kernel, m, U, V, diagonal = certificate
    relations = matrix.to_rows()
    _check_kernel(kernel, relations, matrix.cols, pivot_rows, "u @ M == 0")
    _check_minor(relations, pivot_rows, pivot_cols, m, "m == |det M[P, Q]| != 0")
    if not _is_diagonal_modulo(U, relations, V, diagonal, m, matrix.cols):
        raise AssertionError("the transforms failed their check U @ M @ V == D (mod m)")


def _bordered(diagonal: list[int], w: list[int]) -> list[list[int]]:
    """The rows of [D; w], D = diag(diagonal) as wide as w."""
    return [_unit(i, len(w), d) for i, d in enumerate(diagonal)] + [w]


def _bordered_certificate(pairing: Sequence[int], certificate: tuple) -> tuple:
    """(w, U', V', diagonal'), step 4 of cokernel_factors for a nonsingular
    C from its certificate (m, U, V, D): w == -I^T @ V (mod m), so that
    diag(U, 1) @ [C; -I^T] @ V == [D; w] (mod m), and U' @ [D; w] @ V' ==
    diag(diagonal') (mod m).  D is diagonal, so each column's row step
    meets only w."""
    m, V, diagonal = certificate[3], certificate[5], certificate[6]
    w = [-x % m for x in _combine(pairing, V, len(V))]
    return (w,) + _transforms_modulo(_bordered(diagonal, w), len(w), m)


def _check_bordered(pairing: Sequence[int], certificate: tuple, bordered: tuple) -> None:
    """Check a certificate of _bordered_certificate against the checked
    certificate of C as step 4 of cokernel_factors says; a failed check
    raises AssertionError naming it."""
    m, V, diagonal = certificate[3], certificate[5], certificate[6]
    w, U_border, V_border, diagonal_border = bordered
    if w != [-x % m for x in _combine(pairing, V, len(V))]:
        raise AssertionError("the border failed its check w == -I^T @ V (mod m)")
    if not _is_diagonal_modulo(U_border, _bordered(diagonal, w), V_border, diagonal_border, m, len(w)):
        raise AssertionError("the bordered transforms failed their check U' @ [D; w] @ V' == D' (mod m)")


def _invariant_factors(orders: list[int], m: int, free: int) -> list[int]:
    """The invariant factors of a cokernel, one per generator, 1 for a
    trivial summand and 0 for a free one, from the orders gcd(d_i, m) of
    its checked certificate modulo m, of which free are the free
    summands, as step 3 of cokernel_factors says."""
    factors = _chain(list(orders))
    torsion = len(orders) - free
    if factors[torsion:] != [m] * free:
        raise AssertionError("the invariant factors failed their check: a free summand is not Z/m")
    return factors[:torsion] + [0] * free


def _factors_modulo_minor(
    matrix: IntegerMatrix, target: Sequence[int] | None
) -> tuple[list[int], bool, tuple]:
    """(factors, bounds, certificate): the invariant factors of coker M,
    whether target is 0 in coker M (False for no target), and the checked
    certificate of _modular_certificate they are read off, as steps 3 and
    4 of cokernel_factors say; d_i is 0 past the diagonal."""
    certificate = _modular_certificate(matrix)
    _check_modular(matrix, certificate)
    _, _, kernel, m, U, _, diagonal = certificate
    orders = [gcd(d, m) for d in diagonal] + [m] * (matrix.rows - len(diagonal))
    factors = _invariant_factors(orders, m, len(kernel))
    if target is None:
        return factors, False, certificate
    # target as a one-column matrix, so that u @ target skips u's zero entries
    column = [[a] for a in target]
    if any([_combine(u, column, 1)[0] for u in kernel]):
        return factors, False, certificate
    bounds = all([dot(row, target) % order == 0 for row, order in zip(U, orders) if order > 1])
    return factors, bounds, certificate


def order_certificate(
    relations: IntegerMatrix, generators: Sequence[int], pairing: Sequence[int]
) -> tuple[int, tuple[int, ...], bool] | None:
    """(d, E, kernel_orthogonal) for the least d >= 1 with C @ E == d * A,
    or None when no such d exists.

    C is relations, n columns wide, A generators and I pairing; each step
    is checked, and a failed check raises AssertionError:
    1. One Bareiss elimination of the rows of [C | A], carried on past the
       columns with no pivot (_kernel), gives its pivot columns P and rows
       Q, its last pivot p and, for each column off P, a row k with
       [C | A] @ k == 0 that off P is p at that column and 0 elsewhere.
    2. If A's column n is in P, A lies outside the rational column span
       of C, and None is returned on a rank certificate, with no Smith
       form.  The n + 1 - |P| rows k are each checked 0 in A's slot and
       C @ k == 0, from their nonzero entries, and are independent off P,
       so rank C <= |P| - 1; |det [C | A][Q, P]| == |p|, computed again,
       is nonzero, so rank [C | A] >= |P|.
    3. Otherwise the row of column n gives delta = p and y = -k[:n] with
       C @ y == delta * A, and the other n - |P| rows are checked as in 2.
    4. One Smith form of C gives d and E (minimal_order), and C @ E == d *
       A is checked.  When all n columns of C pivot, y / delta is the one
       rational solution, and Cramer's rule checks the Smith answer: d ==
       |delta| / gcd(delta, y_1, ..., y_n), the least d that makes d * y /
       delta integral, and E == d * y / delta.
    5. The Smith form's D = U @ C @ V, checked, has rank D <= rank C, and
       rank D == |P| is checked; so the rows of step 3 span ker C over the
       rationals, and kernel_orthogonal says whether I . k == 0 for each.

    >>> order_certificate(IntegerMatrix.from_rows([[4, 2], [2, 1]]), (2, 1), (1, -2))
    (1, (0, 1), False)
    >>> order_certificate(IntegerMatrix.from_rows([[4, 2], [2, 1]]), (1, 0), (1, 0)) is None
    True
    """
    generators = _check_ints(generators)
    if len(generators) != relations.rows:
        raise ValueError(f"target length {len(generators)} != row count {relations.rows}")
    n = relations.cols
    pivots, pivot_rows, pivot, kernel = _kernel(
        [row + [a] for row, a in zip(relations.to_rows(), generators)], n + 1
    )
    outside = n in pivots
    if not outside:
        delta, y = pivot, [-e for e in kernel.pop()[:n]]
    if any([k[n] for k in kernel]):
        raise AssertionError("a kernel row failed its check k_n == 0, in A's slot")
    kernel = [k[:n] for k in kernel]
    _check_kernel(kernel, [relations.column(j) for j in range(n)], relations.rows, pivots, "C @ k == 0")
    if outside:
        augmented = [relations.row(i) + (a,) for i, a in enumerate(generators)]
        _check_minor(augmented, pivot_rows, pivots, abs(pivot), "|det [C | A][Q, P]| == |p| != 0")
        return None
    smith = smith_normal_form(relations)
    found = minimal_order(smith, generators)
    if found is None:
        raise AssertionError("the Smith form found infinite order where the elimination found none")
    order, solution = found
    if relations @ solution != tuple([order * a for a in generators]):
        raise AssertionError("the tb certificate failed its check C @ E == d * A")
    if len(pivots) == n and (
        order != abs(delta) // gcd(delta, *y) or [order * e for e in y] != [delta * e for e in solution]
    ):
        raise AssertionError(
            "the tb certificate failed its Cramer check d == |delta| / gcd(delta, y), E == d * y / delta"
        )
    if smith.rank != len(pivots):
        raise AssertionError("the kernel rows failed their check rank D == |P|, that they span ker C")
    return order, solution, all([dot(k, pairing) == 0 for k in kernel])


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
    has one factor per generator.

    No Smith form is made: _factors_modulo_minor works modulo a nonzero
    minor, |det C| for a nonsingular C, and checks each step:
    1. One Bareiss elimination of C^T gives the rank r, the pivot rows P
       and columns Q of C, and, by back-substitution, n - r rows u with
       u @ C == 0, each checked from its nonzero entries; off P each has
       one nonzero entry, at an index of its own, so they are independent
       and rank C <= r.
    2. m = |det C[P, Q]|, the last pivot, is computed again from P and Q.
       It is nonzero, so rank C >= r, and every invariant factor of C
       divides it.
    3. Elimination modulo m keeps each pivot p and records U and V from
       steps of determinant 1, so both are invertible modulo m; U @ C @ V
       == D (mod m) is checked.  coker C (x) Z/m, which is (Z/m)^(n-r)
       plus the torsion of coker C, is then the sum of the Z/gcd(d_i, m):
       in chain form the first r orders are the torsion and the last
       n - r, checked to be m, are the free summands.
    4. The knot bounds when no u has u . A != 0 (such a u proves infinite
       order) and gcd(d_i, m) divides (U @ A)_i for every i, since the
       torsion injects into coker C (x) Z/m.  For a bounding knot and a
       nonsingular C, the exterior is read off C's certificate: with w ==
       -I^T @ V (mod m), checked, diag(U, 1) @ [C; -I^T] @ V == [D; w]
       (mod m), and elimination modulo m of [D; w], which meets only w,
       records U' and V' with U' @ [D; w] @ V' == D' (mod m), checked.
       [C; -I^T] has rank n, since m != 0, so its cokernel is Z plus a
       torsion whose factors divide the gcd of its n x n minors, and so
       m: in chain form the first n orders gcd(d'_i, m) are the torsion
       and the last, checked to be m, is the free summand.  For a singular
       C, [C; -I^T] goes through steps 1 to 3 with a minor of its own rank.
    Each failed check raises AssertionError.

    >>> cokernel_factors(IntegerMatrix.from_rows([[2, 1], [1, 3]]), (3, 4), (1, 2))
    ([1, 5], [1, 1, 0])
    >>> cokernel_factors(IntegerMatrix.from_rows([[2, 0], [0, 0]]), (2, 0), (2, 0))
    ([2, 0], [2, 0, 0])
    """
    factors, bounds, certificate = _factors_modulo_minor(relations, generators)
    if not bounds:
        return factors, None
    if certificate[2]:
        # a singular C: [C; -I^T] has a minor of its own rank
        n = relations.rows
        extended = IntegerMatrix(n + 1, n, relations.entries + tuple([-e for e in pairing]))
        return factors, _factors_modulo_minor(extended, None)[0]
    bordered = _bordered_certificate(pairing, certificate)
    _check_bordered(pairing, certificate, bordered)
    m = certificate[3]
    return factors, _invariant_factors([gcd(d, m) for d in bordered[3]] + [m], m, 1)
