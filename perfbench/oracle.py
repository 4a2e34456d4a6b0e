"""Exact linear algebra that is independent of tbcalc's lattice code.

The checker and the generators use this module; nothing here imports
tbcalc.  Ranks and rational solutions come from fraction-free
elimination, torsion from sympy's invariant factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def monodromy(n, signs, arcs, pairings):
    """Pairing matrix C of an open book with n cut arcs, by forward substitution.

    ``arcs[k]`` lists twist k's pairings with the cut arcs and
    ``pairings`` is the l x l skew matrix of twist pairings.  Twist k sends
    arc j to a class with twist coefficient
    v[k][j] = sign_k * (arcs[k][j] + sum_{m<k} pairings[k][m] * v[m][j]),
    and C[i][j] = sum_k arcs[k][i] * v[k][j].
    """
    v = []
    for k, sign in enumerate(signs):
        row = list(arcs[k])
        for m, weight in enumerate(pairings[k][:k]):
            if weight:
                earlier = v[m]
                for j in range(n):
                    row[j] += weight * earlier[j]
        v.append([sign * x for x in row] if sign < 0 else row)
    c = [[0] * n for _ in range(n)]
    for k in range(len(signs)):
        vk = v[k]
        for i, a in enumerate(arcs[k]):
            if a:
                ci = c[i]
                for j in range(n):
                    ci[j] += a * vk[j]
    return c


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def matvec(m, x):
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row echelon form and its pivot columns.

    Every entry stays an integer minor of the input, so the divisions are
    exact, and each row is a rational combination of the input rows.
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        pivots.append(c)
    return a, pivots


def rank(rows) -> int:
    """Rank over the rationals."""
    return len(echelon(rows)[1])


def rational_solution(m, target) -> list[Fraction] | None:
    """Some rational x with m @ x == target (free unknowns 0), or None."""
    cols = len(m[0]) if m else 0
    a, pivots = echelon(with_column(m, target))
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for i in reversed(range(len(pivots))):
        row = a[i]
        rest = sum(row[j] * x[j] for j in pivots[i + 1 :])
        x[pivots[i]] = (row[cols] - rest) / Fraction(row[pivots[i]])
    return x


def invariant_factors(rows) -> list[int]:
    """Invariant factors of the cokernel of ``rows`` (columns are relations).

    One entry per row: 1 for a trivial summand, 0 for a free one.
    """
    # imported here: the worker reaches this module through gen and must
    # not pay for (or hold the memory of) sympy
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    if not rows or not rows[0]:
        return [0] * len(rows)
    factors = [abs(int(f)) for f in sympy_factors(Matrix(rows), domain=ZZ)]
    return factors + [0] * (len(rows) - len(factors))


def torsion_size(rows) -> int:
    """Order of the torsion subgroup of the cokernel of ``rows``."""
    return prod(f for f in invariant_factors(rows) if f)


def group(factors) -> tuple[tuple[int, ...], int]:
    """(torsion orders >= 2, free rank) from padded invariant factors."""
    return tuple(f for f in factors if f > 1), sum(1 for f in factors if f == 0)


def with_column(m, column):
    return [list(row) + [x] for row, x in zip(m, column)]


def with_row(m, row):
    return [list(r) for r in m] + [list(row)]


def order(c, a) -> int | None:
    """Least d >= 1 with d*a in the integer column span of square c, or None.

    a lies in the rational span exactly when c @ x == a has a rational
    solution; then its class is torsion in coker c, and its order is
    |T(coker c)| / |T(coker [c | a])| because coker [c | a] is coker c
    divided by the class of a.
    """
    x = rational_solution(c, a)
    if x is None:
        return None
    if rank(c) == len(c):
        # Cramer: the ratio of the two torsion sizes is the lcm of the
        # denominators of the unique rational solution
        return lcm(*(v.denominator for v in x))
    return torsion_size(c) // torsion_size(with_column(c, a))
