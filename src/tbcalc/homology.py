"""First homology of the presented manifold and of the knot exterior.

Both groups are cokernels of explicit relation matrices: the manifold's
of the compressing-curve pairings C alone, the knot exterior's of C
extended by a meridian generator that each relation hits -I_j times.
h1_groups picks its route by det C, from one fraction-free solve of
C @ x == A.  When det C != 0 no Smith form is made: the invariant factors
come from elimination modulo |det C|, and three checks certify the
answer (x solves C @ x == A, the manifold's orders multiply to |det C|,
and the exterior's torsion orders multiply to the gcd of the n x n
minors of [C; -I^T]).  These checks certify the group orders; the Smith
route, taken when det C == 0, re-multiplies its whole decomposition.
That route never factors the extended matrix whole: its invariant
factors are read off the Smith form of C plus a small block over the
non-unit diagonal entries.  For data coming from an actual embedded knot
that is nullhomologous, the exterior group is the manifold group plus one
free summand; h1_groups records that as a consistency test, since
arbitrary pairing vectors need not come from an embedding.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, prod

from .heegaard import HeegaardData
from .lattice import (
    IntegerMatrix,
    _Record,
    _check_int,
    _check_ints,
    _set,
    dot,
    fraction_free_solve,
    invariant_factors,
    invariant_factors_modulo,
    minimal_order,
    smith_normal_form,
)


class AbelianGroup(_Record):
    """Finitely generated abelian group in invariant-factor form.

    torsion lists the cyclic orders (each at least 2, each dividing the
    next); free_rank counts the infinite cyclic summands.  Both hold plain
    ints; a bool or any other type raises TypeError.
    """

    def __init__(self, torsion: tuple[int, ...], free_rank: int) -> None:
        torsion = _check_ints(torsion)
        if _check_int(free_rank) < 0:
            raise ValueError("free rank must be nonnegative")
        for value in torsion:
            if value < 2:
                raise ValueError("torsion orders must be at least 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain")
        _set(self, "torsion", torsion)
        _set(self, "free_rank", free_rank)

    @classmethod
    def from_invariant_factors(cls, factors: Iterable[int]) -> "AbelianGroup":
        """Normalize a padded Smith diagonal: drop units, count zeros."""
        factors = tuple(factors)
        return cls(
            torsion=tuple([f for f in factors if f not in (0, 1)]),
            free_rank=sum(1 for f in factors if f == 0),
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class Homology(_Record):
    """First homology of the manifold and, for a nullhomologous knot, of
    its exterior.

    exterior and complement_lemma are None when there is no knot or the
    knot is not nullhomologous.  complement_lemma records whether
    H1(exterior) == H1(manifold) + Z; False flags pairing data that
    cannot come from an embedded knot.
    """

    def __init__(
        self,
        manifold: AbelianGroup,
        exterior: AbelianGroup | None = None,
        complement_lemma: bool | None = None,
    ) -> None:
        _set(self, "manifold", manifold)
        _set(self, "exterior", exterior)
        _set(self, "complement_lemma", complement_lemma)


def h1_groups(data: HeegaardData) -> Homology:
    """H1 of the manifold, the cokernel of C, and of the knot exterior.

    The exterior is presented on the surface generators plus a meridian
    mu, with relation j reading as column j of C together with
    coefficient -I_j on mu.  One fraction-free solve gives delta = +-det C
    and y = delta * C^-1 @ A, and picks the route; data without a knot
    solves for A = 0 and gets H1(M) alone.

    When det C != 0 no Smith form is made.  The knot bounds (order 1)
    when delta divides every y_i, and then x = y / delta is checked,
    C @ x == A.  H1(M) is invariant_factors_modulo(C, |det C|), checked
    to multiply to |det C|.  The exterior, for a bounding knot, is
    invariant_factors_modulo([C; -I^T], |det C|), whose last entry
    |det C| stands for the free summand and is dropped; its torsion is
    checked to multiply to gcd(|det C|, z_1, ..., z_n), the gcd of the
    n x n minors of [C; -I^T], with C^T @ z == delta' * I from a second
    solve.  Each failed check raises AssertionError.  They certify the
    group orders, not each invariant factor.

    When det C == 0, one Smith form U @ C @ V == D, re-multiplied whole,
    gives H1(M) and the verdict (order 1), and for a bounding knot the
    exterior: diag(U, 1) @ [C; -I^T] @ V == [D; w] with w = -I^T @ V,
    and each unit d_j of D clears w_j by one row operation and splits
    off a trivial summand.  What is left is the block [diag(d_j); w_j]
    over the k columns with d_j != 1, at most (k+1) x k, and only that
    block is factored.

    >>> h1_groups(HeegaardData(1, IntegerMatrix.from_rows([[-2]])))
    Homology(manifold=AbelianGroup(torsion=(2,), free_rank=0), exterior=None, complement_lemma=None)
    >>> h1_groups(HeegaardData(1, IntegerMatrix.from_rows([[-1]]), (-1,), (-1,))).complement_lemma
    True
    >>> singular = IntegerMatrix.from_rows([[2, 0], [0, 0]])
    >>> h1_groups(HeegaardData(2, singular, (2, 0), (2, 0))).exterior
    AbelianGroup(torsion=(2,), free_rank=2)
    """
    target = (0,) * data.genus if data.knot_generators is None else data.knot_generators
    delta, y = fraction_free_solve(data.relations, target)
    if delta == 0:
        manifold, exterior = _by_smith_form(data)
    else:
        manifold, exterior = _modulo_determinant(data, delta, y)
    if exterior is None:
        return Homology(manifold)
    lemma = (
        exterior.torsion == manifold.torsion
        and exterior.free_rank == manifold.free_rank + 1
    )
    return Homology(manifold, exterior, lemma)


def _modulo_determinant(
    data: HeegaardData, delta: int, y: tuple[int, ...]
) -> tuple[AbelianGroup, AbelianGroup | None]:
    """H1(M) and, for a bounding knot, the exterior, for det C == +-delta != 0."""
    relations, modulus = data.relations, abs(delta)
    factors = invariant_factors_modulo(relations, modulus)
    if prod(factors) != modulus:
        raise AssertionError("H1(M) failed its check: its order is not |det C|")
    manifold = AbelianGroup.from_invariant_factors(factors)
    if data.knot_generators is None or any([e % delta for e in y]):
        return manifold, None
    if relations @ [e // delta for e in y] != data.knot_generators:
        raise AssertionError("the nullhomology verdict failed its check C @ x == A")
    n = data.genus
    extended = IntegerMatrix(n + 1, n, relations.entries + tuple([-e for e in data.knot_relations]))
    torsion = invariant_factors_modulo(extended, modulus)[:-1]
    transposed = IntegerMatrix(n, n, tuple([e for j in range(n) for e in relations.column(j)]))
    _, minors = fraction_free_solve(transposed, data.knot_relations)
    if prod(torsion) != gcd(modulus, *minors):
        raise AssertionError(
            "H1 of the exterior failed its check: its torsion order is not the gcd of the n x n minors of [C; -I^T]"
        )
    return manifold, AbelianGroup.from_invariant_factors(torsion + [0])


def _by_smith_form(data: HeegaardData) -> tuple[AbelianGroup, AbelianGroup | None]:
    """H1(M) and, for a bounding knot, the exterior, from a Smith form of C."""
    smith = smith_normal_form(data.relations)
    factors = invariant_factors(smith)
    manifold = AbelianGroup.from_invariant_factors(factors)
    if data.knot_generators is None:
        return manifold, None
    certificate = minimal_order(smith, data.knot_generators)
    if certificate is None or certificate.order != 1:
        return manifold, None
    kept = [j for j, d in enumerate(factors) if d != 1]
    block = [[factors[i] if i == j else 0 for j in kept] for i in kept]
    block.append([-dot(data.knot_relations, smith.V.column(j)) for j in kept])
    exterior = AbelianGroup.from_invariant_factors(
        invariant_factors(smith_normal_form(IntegerMatrix.from_rows(block)))
    )
    return manifold, exterior
