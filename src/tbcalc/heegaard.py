"""Knots on convex Heegaard surfaces.

The ambient manifold enters through the pairing matrix C of one
handlebody's compressing curves against dual generators of the surface;
a knot K on the surface contributes its pairing vector A with the
generators, its pairing vector I with the compressing curves, and the
count of its crossings with the dividing set.  The Thurston-Bennequin
invariant is assembled from an integer certificate E with
C @ E == d * A for the least order d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    IntegerMatrix,
    dot,
    kernel_basis,
    minimal_order,
    smith_normal_form,
)

__all__ = ["TbResult", "HeegaardData", "tb_heegaard"]


@dataclass(frozen=True)
class TbResult:
    """Exact Thurston-Bennequin value together with its certifying data.

    order is the least d >= 1 with C @ certificate == d * A; tb is exact
    and already in lowest terms, with denominator dividing order.  When
    kernel_orthogonal is False the pairing vector meets the kernel of C
    and the reported value depends on the certificate choice.
    """

    order: int
    tb: Fraction
    certificate: tuple[int, ...]
    kernel_orthogonal: bool

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.order % self.tb.denominator:
            raise ValueError("tb denominator must divide the order")
        object.__setattr__(self, "certificate", tuple(self.certificate))

    @property
    def tb_numerator(self) -> int:
        return self.tb.numerator

    @property
    def tb_denominator(self) -> int:
        return self.tb.denominator


@dataclass(frozen=True)
class HeegaardData:
    """Pairing data of a knot on a convex Heegaard surface of genus `genus`."""

    genus: int
    relations: IntegerMatrix
    knot_generators: tuple[int, ...]
    knot_relations: tuple[int, ...]
    dividing_intersections: int = 0

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if (self.relations.rows, self.relations.cols) != (self.genus, self.genus):
            raise ValueError(
                f"relations must be {self.genus}x{self.genus}, "
                f"got {self.relations.rows}x{self.relations.cols}"
            )
        object.__setattr__(self, "knot_generators", tuple(self.knot_generators))
        object.__setattr__(self, "knot_relations", tuple(self.knot_relations))
        if len(self.knot_generators) != self.genus:
            raise ValueError("knot_generators must have one entry per generator")
        if len(self.knot_relations) != self.genus:
            raise ValueError("knot_relations must have one entry per relation")
        if self.dividing_intersections < 0:
            raise ValueError("dividing-set crossing count must be nonnegative")
        if self.dividing_intersections % 2:
            # a closed curve crosses the dividing set an even number of times
            raise ValueError("dividing-set crossing count must be even")


def tb_heegaard(data: HeegaardData) -> TbResult | None:
    """Thurston-Bennequin invariant of the surface knot.

    tb = -(dividing crossings)/2 + <E, I>/d for the least d >= 1 with
    C @ E == d * A.  Returns None when no such d exists (the knot is not
    rationally nullhomologous and tb is undefined).  C is factored once,
    for both the order and the kernel.
    """
    smith = smith_normal_form(data.relations)
    certificate = minimal_order(smith, data.knot_generators)
    if certificate is None:
        return None
    value = Fraction(-data.dividing_intersections, 2) + Fraction(
        dot(certificate.solution, data.knot_relations), certificate.order
    )
    orthogonal = all(
        dot(vector, data.knot_relations) == 0
        for vector in kernel_basis(smith)
    )
    return TbResult(
        order=certificate.order,
        tb=value,
        certificate=certificate.solution,
        kernel_orthogonal=orthogonal,
    )
