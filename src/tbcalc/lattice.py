"""Exact linear algebra over the integers.

Everything in this module runs on Python's arbitrary-precision ints, so
results are exact and nothing can overflow silently.  The central tool is
the Smith normal form D = U @ M @ V with unimodular transforms U and V,
which one working matrix builds along with D.  A matrix is factored once,
and everything else is read off that one decomposition: orders of
cokernel classes with integer witnesses (order 1 solves the system
itself), kernels, and cokernel invariant factors.

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
from math import gcd, lcm


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
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # exact division: every Bareiss minor is an integer
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


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


class OrderCertificate(_Record):
    """Witness that order is the least d >= 1 with matrix @ solution == d * target;
    an order or entry that is not a plain int, a bool included, raises TypeError."""

    def __init__(self, order: int, solution: tuple[int, ...]) -> None:
        if _check_int(order) < 1:
            raise ValueError("order must be positive")
        _set(self, "order", order)
        _set(self, "solution", _check_ints(solution))


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


def kernel_basis(smith: SmithDecomposition) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : M @ x == 0} of the factored M.

    The trailing cols - rank columns of V; independent by unimodularity.
    An injective matrix yields the empty list.

    >>> kernel_basis(smith_normal_form(IntegerMatrix.from_rows([[4, 2], [2, 1]])))
    [(1, -2)]
    """
    return [smith.V.column(j) for j in range(smith.rank, smith.D.cols)]


def minimal_order(
    smith: SmithDecomposition, target: Sequence[int]
) -> OrderCertificate | None:
    """Least d >= 1 making M @ x == d * target solvable over the integers.

    M is the matrix that smith factors.  Returns that order with a
    witness solution, or None when no positive multiple of the target
    lies in the column span (the target's class in the cokernel has
    infinite order).  Order 1 means M @ x == target itself is solvable,
    and the witness is then the solution whose kernel component vanishes
    in the Smith-transformed coordinates.

    >>> minimal_order(smith_normal_form(IntegerMatrix.from_rows([[2]])), (1,))
    OrderCertificate(order=2, solution=(1,))
    >>> minimal_order(smith_normal_form(IntegerMatrix.from_rows([[0]])), (1,)) is None
    True
    >>> m = IntegerMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
    >>> minimal_order(smith_normal_form(m), (2, 1, 1))
    OrderCertificate(order=1, solution=(2, 0, 1))
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
    return OrderCertificate(order=order, solution=smith.V @ y)


def invariant_factors(smith: SmithDecomposition) -> tuple[int, ...]:
    """Smith diagonal padded with zeros to one entry per row of M.

    Read the columns of the factored M as relations among row-indexed
    generators: the entries are the invariant factors of the cokernel,
    with 1 marking trivial summands and 0 marking free ones.  Leading
    units are kept; callers normalize.

    >>> invariant_factors(smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])))
    (1, 6)
    """
    diagonal = list(smith.diagonal())
    return tuple(diagonal + [0] * (smith.D.rows - len(diagonal)))
