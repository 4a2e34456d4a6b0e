"""Exact linear algebra over the integers.

Everything in this module runs on Python's arbitrary-precision ints, so
results are exact and nothing can overflow silently.  The central tool is
the Smith normal form D = U @ M @ V with unimodular transforms U and V.
A matrix is factored once, and everything else is read off that one
decomposition: orders of cokernel classes with integer witnesses (order 1
solves the system itself), kernels, and cokernel invariant factors.

Tuples throughout tbcalc are built from a list, a tuple or a slice, never
from a generator or a lazy iterator such as map, zip or chain.  CPython
allocates a tuple of unknown length at a guessed size and resizes it, so
when such a tuple of fewer than 20 entries dies it goes to the free list
of a size that no allocation draws from; each of those lists keeps up to
2000 tuples for the life of the process.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence, Union

__all__ = [
    "IntegerMatrix",
    "SmithDecomposition",
    "OrderCertificate",
    "dot",
    "smith_normal_form",
    "kernel_basis",
    "minimal_order",
    "invariant_factors",
]


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

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple([1 if i == j else 0 for i in range(n) for j in range(n)]))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

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

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(
                [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
            ),
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple([-e for e in self.entries]))

    def __matmul__(
        self, other: Union["IntegerMatrix", Sequence[int]]
    ) -> Union["IntegerMatrix", tuple[int, ...]]:
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            product = tuple(
                [
                    sum(self[i, k] * other[k, j] for k in range(self.cols))
                    for i in range(self.rows)
                    for j in range(other.cols)
                ]
            )
            return IntegerMatrix(self.rows, other.cols, product)
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

    Pivots are chosen as a smallest nonzero entry of the active block by
    absolute value, remainders are produced by floor division, and signs
    are normalized only once a pivot's row and column are clear.  The
    returned decomposition is re-multiplied before being handed back.

    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])).diagonal()
    (1, 6)
    """
    n_rows, n_cols = matrix.rows, matrix.cols
    d = matrix.to_rows()
    u = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]
    v = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(a: int, b: int) -> None:
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int) -> None:
        for r in d:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def add_row(src: int, dst: int, factor: int) -> None:
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, factor: int) -> None:
        for r in d:
            r[dst] += factor * r[src]
        for r in v:
            r[dst] += factor * r[src]

    limit = min(n_rows, n_cols)
    t = 0
    while t < limit:
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        while True:
            restart = False
            for i in range(t + 1, n_rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        add_row(t, i, -q)
                    if d[i][t]:
                        # nonzero remainder is strictly smaller: new pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n_cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # divisor chain: the pivot must divide the remaining block
            offender = None
            for i in range(t + 1, n_rows):
                if any(e % d[t][t] for e in d[i][t + 1 :]):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    rank = sum(1 for i in range(limit) if d[i][i])
    result = SmithDecomposition(
        U=IntegerMatrix(n_rows, n_rows, tuple(list(chain.from_iterable(u)))),
        D=IntegerMatrix(n_rows, n_cols, tuple(list(chain.from_iterable(d)))),
        V=IntegerMatrix(n_cols, n_cols, tuple(list(chain.from_iterable(v)))),
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
