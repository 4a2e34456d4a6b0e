"""The records' contract, and what importing the CLI loads.

tbcalc's records are plain classes on one small base: each writes its own
``__init__``, and the base gives equality, hashing, repr and immutability
from the fields.  A one-document-per-process CLI pays for every module
its import pulls in, so the import guard keeps the heavy ones out.
"""

import inspect
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import tbcalc
import tbcalc.documents
import tbcalc.heegaard
import tbcalc.homology
import tbcalc.lattice
import tbcalc.openbook
from tbcalc import (
    AbelianGroup,
    DehnTwist,
    HeegaardData,
    Homology,
    InputDocument,
    IntegerMatrix,
    OpenBookPresentation,
    PageKnot,
    PageSurface,
    TbResult,
)
from tbcalc.lattice import SmithDecomposition, _Record, minimal_order, order_certificate, smith_normal_form

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# modules that class-building machinery would pull into the CLI's import,
# and typing and pathlib, which annotations from collections.abc and the
# builtin open() make unnecessary
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "typing", "pathlib"
)


def test_importing_the_cli_loads_no_heavy_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tbcalc.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    # -S keeps site start-up from loading modules before the import
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "tbcalc.cli" in loaded
    assert loaded.isdisjoint(HEAVY_MODULES), sorted(loaded.intersection(HEAVY_MODULES))


def _samples():
    """(record class, its documented fields, a factory of equal records)."""
    matrix = IntegerMatrix.from_rows([[2, 1], [0, 3]])
    wide = IntegerMatrix.from_rows([[2, 4, 0], [1, 2, 0]])
    page = PageSurface(0, 2)
    twist = DehnTwist(1, (-1,))
    book = OpenBookPresentation(page, (twist,), IntegerMatrix.from_rows([[0]]))
    heegaard = HeegaardData(2, matrix, (1, 0), (0, 1), 2)
    group = AbelianGroup((2, 4), 1)
    return [
        (IntegerMatrix, ("rows", "cols", "entries"), lambda: IntegerMatrix(2, 2, (2, 1, 0, 3))),
        (SmithDecomposition, ("U", "D", "V", "rank"), lambda: smith_normal_form(matrix)),
        (SmithDecomposition, ("U", "D", "V", "rank"), lambda: smith_normal_form(wide)),
        (
            TbResult,
            ("order", "tb", "certificate", "kernel_orthogonal"),
            lambda: TbResult(2, Fraction(-1, 2), (1,), True),
        ),
        (
            HeegaardData,
            ("genus", "relations", "knot_generators", "knot_relations", "dividing_intersections"),
            lambda: HeegaardData(2, matrix, (1, 0), (0, 1), 2),
        ),
        (AbelianGroup, ("torsion", "free_rank"), lambda: AbelianGroup((2, 4), 1)),
        (
            Homology,
            ("manifold", "exterior", "complement_lemma"),
            lambda: Homology(group, AbelianGroup((2, 4), 2), True),
        ),
        (PageSurface, ("genus", "boundary_components"), lambda: PageSurface(1, 3)),
        (DehnTwist, ("sign", "arc_pairings"), lambda: DehnTwist(-1, (1, 0, 2))),
        (PageKnot, ("arc_pairings",), lambda: PageKnot((1, -1))),
        (
            OpenBookPresentation,
            ("page", "twists", "twist_pairings"),
            lambda: OpenBookPresentation(page, (twist,), IntegerMatrix.from_rows([[0]])),
        ),
        (
            InputDocument,
            ("open_book", "knot", "heegaard", "name", "description"),
            lambda: InputDocument(book, PageKnot((-1,)), None, "annulus", None),
        ),
        (
            InputDocument,
            ("open_book", "knot", "heegaard", "name", "description"),
            lambda: InputDocument(heegaard=heegaard, description="genus two"),
        ),
    ]


SAMPLES = _samples()
IDS = [f"{cls.__name__}-{index}" for index, (cls, _, _) in enumerate(SAMPLES)]


# the exported names and SmithDecomposition, which only tbcalc.lattice exports
NAMESPACE = {**{name: getattr(tbcalc, name) for name in tbcalc.__all__}, "SmithDecomposition": SmithDecomposition}


def test_every_record_is_sampled():
    records = {cls for cls, _, _ in SAMPLES}
    assert len(records) == 11
    modules = (tbcalc.documents, tbcalc.heegaard, tbcalc.homology, tbcalc.lattice, tbcalc.openbook)
    defined = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, _Record) and value is not _Record
    }
    assert records == defined
    assert records <= set(NAMESPACE.values())


@pytest.mark.parametrize("cls,fields,make", SAMPLES, ids=IDS)
class TestRecordContract:
    def test_signature_lists_the_fields(self, cls, fields, make):
        assert tuple(inspect.signature(cls).parameters) == fields

    def test_positional_and_keyword_construction_agree(self, cls, fields, make):
        record = make()
        values = [getattr(record, name) for name in fields]
        assert cls(*values) == record
        assert cls(**dict(zip(fields, values))) == record

    def test_fields_cannot_be_set_or_deleted(self, cls, fields, make):
        record = make()
        before = [getattr(record, name) for name in fields]
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert [getattr(record, name) for name in fields] == before

    def test_equal_records_hash_equal(self, cls, fields, make):
        first, second = make(), make()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_never_equals_the_tuple_of_its_fields(self, cls, fields, make):
        record = make()
        values = tuple([getattr(record, name) for name in fields])
        assert record != values and values != record
        assert record.__eq__(values) is NotImplemented
        assert record != object()

    def test_repr_names_each_field(self, cls, fields, make):
        record = make()
        shown = ", ".join([f"{name}={getattr(record, name)!r}" for name in fields])
        assert repr(record) == f"{cls.__name__}({shown})"
        assert eval(repr(record), {"Fraction": Fraction, **NAMESPACE}) == record


def test_a_different_field_breaks_equality():
    assert IntegerMatrix(1, 2, (1, 2)) != IntegerMatrix(2, 1, (1, 2))
    assert PageKnot((1, 2)) != PageKnot((1, 3))
    assert Homology(AbelianGroup((), 0)) != Homology(AbelianGroup((), 0), None, False)


@pytest.mark.parametrize(
    "build",
    [
        lambda: order_certificate(IntegerMatrix.from_rows([[2]]), (True,), (1,)),
        lambda: order_certificate(IntegerMatrix.from_rows([[2]]), (1.0,), (1,)),
        lambda: minimal_order(smith_normal_form(IntegerMatrix.from_rows([[2]])), ("1",)),
        lambda: minimal_order(smith_normal_form(IntegerMatrix.from_rows([[2]])), (None,)),
        lambda: TbResult(2, -1, (1,), True),
        lambda: TbResult(2, -0.5, (1,), True),
        lambda: TbResult(True, Fraction(-1), (1,), True),
        lambda: TbResult(2.0, Fraction(-1), (1,), True),
        lambda: TbResult(2, Fraction(-1), ("x",), True),
        lambda: TbResult(2, Fraction(-1), (1,), "yes"),
        lambda: TbResult(2, Fraction(-1), (1,), 1),
        lambda: SmithDecomposition(*[IntegerMatrix.from_rows([[1]])] * 3, True),
        lambda: SmithDecomposition(*[IntegerMatrix.from_rows([[1]])] * 3, "x"),
        lambda: SmithDecomposition(*[IntegerMatrix.from_rows([[1]])] * 3, 1.0),
    ],
)
def test_certificates_and_decompositions_refuse_wrong_types(build):
    # every record with an int, a Fraction or a bool field refuses any
    # other type, as the parser's records do, and so does the target of
    # an order certificate
    with pytest.raises(TypeError):
        build()


def test_derived_records_are_no_larger_than_constructed_ones():
    """_derive stores the fields as __init__ does, so a derived record is
    as small as a checked one.  Filling a record's __dict__ with update()
    gives it a dict of its own instead, 248 B against 96 B per twist on
    Python 3.11, and stabilize derives one twist per letter of the word."""
    pairings = (1, 0, -1)

    def traced(build):
        tracemalloc.start()
        try:
            records = [build() for _ in range(10_000)]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 10_000
        return size

    builds = (
        lambda: DehnTwist(1, pairings),
        lambda: DehnTwist._derive(sign=1, arc_pairings=pairings),
    )
    # the first trace of a process also counts one-time allocations
    traced(builds[0])
    checked, derived = [traced(build) for build in builds]
    # less than a byte per record apart: the allocator's own bookkeeping
    # moves the totals by a few dozen bytes from run to run
    assert derived - checked < 10_000, (derived, checked)
