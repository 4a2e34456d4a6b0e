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


@dataclass(frozen=True)
class HeegaardData:
    """Pairing data of a convex Heegaard surface of genus `genus`, and of
    a knot on it.

    The knot block (knot_generators, knot_relations and
    dividing_intersections) is all or nothing: with no knot both vectors
    are None and there are no dividing-set crossings.
    """

    genus: int
    relations: IntegerMatrix
    knot_generators: tuple[int, ...] | None = None
    knot_relations: tuple[int, ...] | None = None
    dividing_intersections: int = 0

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if (self.relations.rows, self.relations.cols) != (self.genus, self.genus):
            raise ValueError(
                f"relations must be {self.genus}x{self.genus}, "
                f"got {self.relations.rows}x{self.relations.cols}"
            )
        if (self.knot_generators is None) != (self.knot_relations is None):
            raise ValueError("knot_generators and knot_relations come together or not at all")
        if self.knot_generators is None:
            if self.dividing_intersections:
                raise ValueError("dividing-set crossings need a knot")
            return
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
    rationally nullhomologous and tb is undefined), and raises ValueError
    for data without a knot.  C is factored once, for both the order and
    the kernel.
    """
    if data.knot_generators is None:
        raise ValueError("the data has no knot, so it has no tb")
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
