"""Exact Thurston-Bennequin invariants for knots on open book pages.

A Legendrian knot sitting on a page of a contact open book, or on a convex
Heegaard surface, is described by finitely many integers: how its homology
class pairs against the monodromy curves or the surface relations.  From
that data this package decides whether the knot is rationally
nullhomologous, certifies the minimal order, and evaluates the (rational)
Thurston-Bennequin invariant exactly.  All arithmetic is integer or
``fractions.Fraction``; nothing is ever rounded.
"""

from .documents import (
    DocumentError,
    InputDocument,
    ParseError,
    ValidationError,
    dumps_document,
    load_document,
    parse_document,
    write_document,
)
from .heegaard import HeegaardData, TbResult, tb_heegaard
from .homology import AbelianGroup, Homology, h1_groups
from .lattice import IntegerMatrix
from .openbook import (
    DehnTwist,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    monodromy_matrix,
    stabilize,
    tb_open_book,
    to_heegaard,
)

__version__ = "0.1.0"

# exactly the README's "Library" table and the types it names
__all__ = [
    "AbelianGroup",
    "DehnTwist",
    "DocumentError",
    "HeegaardData",
    "Homology",
    "InputDocument",
    "IntegerMatrix",
    "OpenBookPresentation",
    "PageKnot",
    "PageSurface",
    "ParseError",
    "TbResult",
    "ValidationError",
    "dumps_document",
    "h1_groups",
    "load_document",
    "monodromy_matrix",
    "parse_document",
    "stabilize",
    "tb_heegaard",
    "tb_open_book",
    "to_heegaard",
    "write_document",
]
