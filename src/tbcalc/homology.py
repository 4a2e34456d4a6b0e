"""First homology of the presented manifold and of the knot exterior.

Both groups are read off as cokernels of explicit relation matrices:
the manifold from the compressing-curve pairings C alone, the knot
exterior from C extended by a meridian generator that each relation
hits -I_j times.  For data coming from an actual embedded knot that is
nullhomologous, the exterior group is the manifold group plus one free
summand; h1_groups records that as a consistency test, since arbitrary
pairing vectors need not come from an embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .heegaard import HeegaardData
from .lattice import IntegerMatrix, invariant_factors, minimal_order, smith_normal_form

__all__ = ["AbelianGroup", "Homology", "h1_groups"]


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    torsion lists the cyclic orders (each at least 2, each dividing the
    next); free_rank counts the infinite cyclic summands.
    """

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for value in self.torsion:
            if value < 2:
                raise ValueError("torsion orders must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain")

    @classmethod
    def from_invariant_factors(cls, factors: Iterable[int]) -> "AbelianGroup":
        """Normalize a padded Smith diagonal: drop units, count zeros."""
        factors = tuple(factors)
        return cls(
            torsion=tuple(f for f in factors if f not in (0, 1)),
            free_rank=sum(1 for f in factors if f == 0),
        )

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and not self.free_rank

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Homology:
    """First homology of the manifold and, for a nullhomologous knot, of
    its exterior.

    exterior and complement_lemma are None when there is no knot or the
    knot is not nullhomologous.  complement_lemma records whether
    H1(exterior) == H1(manifold) + Z; False flags pairing data that
    cannot come from an embedded knot.
    """

    manifold: AbelianGroup
    exterior: AbelianGroup | None = None
    complement_lemma: bool | None = None


def h1_groups(data: HeegaardData) -> Homology:
    """H1 of the manifold, the cokernel of C, and of the knot exterior.

    The exterior is presented on the surface generators plus a meridian
    mu, with relation j reading as column j of C together with
    coefficient -I_j on mu.  One Smith form of C gives both H1(M) and
    the nullhomology verdict (order 1); the extended matrix is factored
    only for a nullhomologous knot, so data without a knot gets H1(M)
    alone.

    >>> h1_groups(HeegaardData(1, IntegerMatrix.from_rows([[-2]])))
    Homology(manifold=AbelianGroup(torsion=(2,), free_rank=0), exterior=None, complement_lemma=None)
    >>> h1_groups(HeegaardData(1, IntegerMatrix.from_rows([[-1]]), (-1,), (-1,))).complement_lemma
    True
    """
    smith = smith_normal_form(data.relations)
    manifold = AbelianGroup.from_invariant_factors(invariant_factors(smith))
    if data.knot_generators is None:
        return Homology(manifold)
    certificate = minimal_order(smith, data.knot_generators)
    if certificate is None or certificate.order != 1:
        return Homology(manifold)
    rows = data.relations.to_rows()
    rows.append([-value for value in data.knot_relations])
    exterior = AbelianGroup.from_invariant_factors(
        invariant_factors(smith_normal_form(IntegerMatrix.from_rows(rows)))
    )
    lemma = (
        exterior.torsion == manifold.torsion
        and exterior.free_rank == manifold.free_rank + 1
    )
    return Homology(manifold, exterior, lemma)
