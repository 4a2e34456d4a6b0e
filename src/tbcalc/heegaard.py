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

from fractions import Fraction

from .lattice import IntegerMatrix, _Record, _check_int, _check_ints, _set, dot, order_certificate


class TbResult(_Record):
    """Exact Thurston-Bennequin value together with its certifying data.

    order is the least d >= 1 with C @ certificate == d * A; tb is exact
    and already in lowest terms, with denominator dividing order.  When
    kernel_orthogonal is False the pairing vector meets the kernel of C
    and the reported value depends on the certificate choice.  order and
    the certificate's entries are plain ints, tb a Fraction and
    kernel_orthogonal a bool; any other type raises TypeError.
    """

    def __init__(
        self, order: int, tb: Fraction, certificate: tuple[int, ...], kernel_orthogonal: bool
    ) -> None:
        if _check_int(order) < 1:
            raise ValueError("order must be positive")
        if not isinstance(tb, Fraction):
            raise TypeError(f"tb must be a Fraction, got {tb!r}")
        if order % tb.denominator:
            raise ValueError("tb denominator must divide the order")
        if not isinstance(kernel_orthogonal, bool):
            raise TypeError(f"kernel_orthogonal must be a bool, got {kernel_orthogonal!r}")
        _set(self, "order", order)
        _set(self, "tb", tb)
        _set(self, "certificate", _check_ints(certificate))
        _set(self, "kernel_orthogonal", kernel_orthogonal)


class HeegaardData(_Record):
    """Pairing data of a convex Heegaard surface of genus `genus`, and of
    a knot on it.

    The knot block (knot_generators, knot_relations and
    dividing_intersections) is all or nothing: with no knot both vectors
    are None and there are no dividing-set crossings.  genus,
    dividing_intersections and the entries of both knot vectors are
    plain ints; a bool or any other type raises TypeError.
    """

    def __init__(
        self,
        genus: int,
        relations: IntegerMatrix,
        knot_generators: tuple[int, ...] | None = None,
        knot_relations: tuple[int, ...] | None = None,
        dividing_intersections: int = 0,
    ) -> None:
        if _check_int(genus) < 0:
            raise ValueError("genus must be nonnegative")
        if (relations.rows, relations.cols) != (genus, genus):
            raise ValueError(
                f"relations must be {genus}x{genus}, got {relations.rows}x{relations.cols}"
            )
        if (knot_generators is None) != (knot_relations is None):
            raise ValueError("knot_generators and knot_relations come together or not at all")
        _check_int(dividing_intersections)
        if knot_generators is None:
            if dividing_intersections:
                raise ValueError("dividing-set crossings need a knot")
        else:
            knot_generators = _check_ints(knot_generators)
            knot_relations = _check_ints(knot_relations)
            if len(knot_generators) != genus:
                raise ValueError("knot_generators must have one entry per generator")
            if len(knot_relations) != genus:
                raise ValueError("knot_relations must have one entry per relation")
            if dividing_intersections < 0:
                raise ValueError("dividing-set crossing count must be nonnegative")
            if dividing_intersections % 2:
                # a closed curve crosses the dividing set an even number of times
                raise ValueError("dividing-set crossing count must be even")
        _set(self, "genus", genus)
        _set(self, "relations", relations)
        _set(self, "knot_generators", knot_generators)
        _set(self, "knot_relations", knot_relations)
        _set(self, "dividing_intersections", dividing_intersections)


def tb_heegaard(data: HeegaardData) -> TbResult | None:
    """Thurston-Bennequin invariant of the surface knot.

    tb = -(dividing crossings)/2 + <E, I>/d for the least d >= 1 with
    C @ E == d * A.  Returns None when no such d exists (the knot is not
    rationally nullhomologous and tb is undefined), and raises ValueError
    for data without a knot.  d, the checked certificate E and the
    kernel verdict come from lattice.order_certificate.
    """
    if data.knot_generators is None:
        raise ValueError("the data has no knot, so it has no tb")
    found = order_certificate(data.relations, data.knot_generators, data.knot_relations)
    if found is None:
        return None
    order, certificate, orthogonal = found
    tb = Fraction(-data.dividing_intersections, 2) + Fraction(dot(certificate, data.knot_relations), order)
    return TbResult(order, tb, certificate, orthogonal)
