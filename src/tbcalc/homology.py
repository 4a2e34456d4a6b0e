"""First homology of the presented manifold and of the knot exterior.

Both groups are cokernels of explicit relation matrices: the manifold's
of the compressing-curve pairings C alone, the knot exterior's of C
extended by a meridian generator that each relation hits -I_j times.
lattice.cokernel_factors gives their invariant factors with no Smith
form, by elimination modulo m, a nonzero minor of order rank C (|det C|
when det C != 0), and certifies each of them: checked left-kernel rows
and the recomputed minor give the rank, so coker C (x) Z/m is the free
part modulo m plus the whole torsion, and transforms U and V, invertible
modulo m, with U @ C @ V == D (mod m) checked, give that group and each
invariant factor.  Its docstring describes the checks.  For data coming
from an actual embedded knot that is nullhomologous, the exterior group
is the manifold group plus one free summand; h1_groups records that as a
consistency test, since arbitrary pairing vectors need not come from an
embedding.
"""

from __future__ import annotations

from collections.abc import Iterable

from .heegaard import HeegaardData
from .lattice import _Record, _check_int, _check_ints, _set, cokernel_factors


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
    coefficient -I_j on mu; it is computed for a knot that bounds.  The
    invariant factors of both come from lattice.cokernel_factors, whose
    docstring describes its checks.

    >>> from tbcalc import IntegerMatrix
    >>> h1_groups(HeegaardData(1, IntegerMatrix.from_rows([[-2]])))
    Homology(manifold=AbelianGroup(torsion=(2,), free_rank=0), exterior=None, complement_lemma=None)
    >>> h1_groups(HeegaardData(1, IntegerMatrix.from_rows([[-1]]), (-1,), (-1,))).complement_lemma
    True
    >>> singular = IntegerMatrix.from_rows([[2, 0], [0, 0]])
    >>> h1_groups(HeegaardData(2, singular, (2, 0), (2, 0))).exterior
    AbelianGroup(torsion=(2,), free_rank=2)
    """
    factors, extended = cokernel_factors(data.relations, data.knot_generators, data.knot_relations)
    manifold = AbelianGroup.from_invariant_factors(factors)
    if extended is None:
        return Homology(manifold)
    exterior = AbelianGroup.from_invariant_factors(extended)
    lemma = (
        exterior.torsion == manifold.torsion
        and exterior.free_rank == manifold.free_rank + 1
    )
    return Homology(manifold, exterior, lemma)
