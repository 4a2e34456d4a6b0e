"""Command line interface.

Subcommands:

    tb         compute the Thurston-Bennequin invariant of the knot
    homology   report H1 of the manifold (and of the knot exterior)
    stabilize  write a stabilized copy of an open book document
    convert    rewrite an open book document as heegaard-mode data

Exit codes are a stable scripting contract: 0 success (finite order),
1 bad input or usage, 2 knot class of infinite order.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

from .documents import (
    DocumentError,
    InputDocument,
    load_document,
    write_document,
)
from .heegaard import HeegaardData, TbResult, tb_heegaard
from .homology import AbelianGroup, h1_groups
from .openbook import monodromy_matrix, stabilize, tb_open_book, to_heegaard

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFINITE = 2

VERDICT_INFINITE = "infinite order"


class UsageError(Exception):
    """A structurally valid document used with the wrong command."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but 2 means "infinite order" here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tbcalc",
        description="Exact Thurston-Bennequin invariants from page or surface data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "input",
            nargs="?",
            default="-",
            help="input document (JSON); '-' or omitted reads standard input",
        )
        sub.add_argument(
            "--stdin",
            action="store_true",
            help="read the document from standard input",
        )
        sub.add_argument(
            "--json",
            action="store_true",
            dest="machine",
            help="machine-readable JSON on standard output",
        )
        sub.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="print document context; repeat for the pairing matrix",
        )

    tb = subparsers.add_parser("tb", help="compute the Thurston-Bennequin invariant")
    add_common(tb)

    homology = subparsers.add_parser(
        "homology", help="first homology of the manifold and knot exterior"
    )
    add_common(homology)

    stab = subparsers.add_parser(
        "stabilize", help="stabilize an open book document once"
    )
    add_common(stab)
    stab.add_argument(
        "--sign", required=True, choices=["+1", "-1"], help="stabilization sign"
    )
    stab.add_argument(
        "-o", "--output", required=True, help="path for the stabilized document"
    )

    convert = subparsers.add_parser(
        "convert", help="rewrite an open book as heegaard-mode data"
    )
    add_common(convert)
    convert.add_argument(
        "-o", "--output", required=True, help="path for the converted document"
    )
    return parser


def _load(args: argparse.Namespace) -> InputDocument:
    if args.stdin or args.input == "-":
        return load_document(sys.stdin)
    return load_document(args.input)


def _print_context(document: InputDocument, args: argparse.Namespace) -> None:
    if not args.verbose or args.machine:
        return
    if document.name or document.description:
        line = document.name or "(unnamed)"
        if document.description:
            line += f": {document.description}"
        print(line)
    if args.verbose > 1 and document.mode == "openbook":
        print(f"pairing matrix C = {monodromy_matrix(document.open_book).to_rows()}")
    elif args.verbose > 1:
        print(f"pairing matrix C = {document.heegaard.relations.to_rows()}")


def _tb_result(document: InputDocument) -> TbResult | None:
    if document.mode == "openbook":
        if document.knot is None:
            raise UsageError('the document has no knot block; add "knot": {"arcs": [...]}')
        return tb_open_book(document.open_book, document.knot)
    if document.heegaard.knot_generators is None:
        raise UsageError('the document has no knot data; add "A", "I" and "dividing"')
    return tb_heegaard(document.heegaard)


def _heegaard_view(document: InputDocument) -> HeegaardData:
    if document.mode == "heegaard":
        return document.heegaard
    return to_heegaard(document.open_book, document.knot)


def _verdict(result: TbResult) -> str:
    if result.order == 1:
        return "nullhomologous"
    return f"rationally nullhomologous of order {result.order}"


def _fraction_obj(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"numerator": value.numerator, "denominator": value.denominator}


def _group_obj(group: AbelianGroup) -> dict:
    return {
        "torsion": list(group.torsion),
        "free_rank": group.free_rank,
        "text": str(group),
    }


def cmd_tb(document: InputDocument, args: argparse.Namespace) -> int:
    _print_context(document, args)
    result = _tb_result(document)
    if result is None:
        if args.machine:
            print(json.dumps({"verdict": VERDICT_INFINITE}, indent=2))
        else:
            print(f"verdict: {VERDICT_INFINITE}")
            print("no positive multiple of the knot class bounds; tb is undefined")
        return EXIT_INFINITE
    if not result.kernel_orthogonal:
        print(
            "warning: the knot pairing vector is not orthogonal to the kernel of C; "
            "the reported tb depends on the certificate choice",
            file=sys.stderr,
        )
    if args.machine:
        payload = {
            "verdict": _verdict(result),
            "order": result.order,
            "tb_numerator": result.tb.numerator,
            "tb_denominator": result.tb.denominator,
            "certificate": list(result.certificate),
            "kernel_orthogonal": result.kernel_orthogonal,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {_verdict(result)}")
        print(f"order {result.order}, tb = {result.tb}")
        print(f"certificate E = {list(result.certificate)}")
    return EXIT_OK


def cmd_homology(document: InputDocument, args: argparse.Namespace) -> int:
    _print_context(document, args)
    data = _heegaard_view(document)
    groups = h1_groups(data)
    payload: dict = {
        "h1_manifold": _group_obj(groups.manifold),
        "h1_complement": None,
        "complement_lemma": None,
    }
    lines = [f"H1(M) = {groups.manifold}"]
    if groups.exterior is not None:
        payload["h1_complement"] = _group_obj(groups.exterior)
        payload["complement_lemma"] = groups.complement_lemma
        lines.append(f"H1(M \\ nu K) = {groups.exterior}")
        lines.append(f"complement lemma: {'holds' if groups.complement_lemma else 'FAILS'}")
    elif data.knot_generators is not None:
        lines.append("knot is not nullhomologous; exterior homology not reported")
    if args.machine:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_stabilize(document: InputDocument, args: argparse.Namespace) -> int:
    if document.mode != "openbook":
        raise UsageError("stabilize requires an openbook document")
    if document.knot is None:
        raise UsageError('the document has no knot block; add "knot": {"arcs": [...]}')
    _print_context(document, args)
    sign = 1 if args.sign == "+1" else -1
    before = tb_open_book(document.open_book, document.knot)
    stabilized, knot = stabilize(document.open_book, document.knot, sign)
    after = tb_open_book(stabilized, knot)
    write_document(
        InputDocument(
            open_book=stabilized,
            knot=knot,
            name=document.name,
            description=document.description,
        ),
        args.output,
    )
    if args.machine:
        payload = {
            "output": str(args.output),
            "sign": sign,
            "tb_before": _fraction_obj(before.tb if before else None),
            "tb_after": _fraction_obj(after.tb if after else None),
            "delta": _fraction_obj(after.tb - before.tb if before and after else None),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"wrote {args.output}")
        if before is None:
            print("tb undefined before and after (knot class of infinite order)")
        else:
            print(
                f"tb before = {before.tb}, tb after = {after.tb}, "
                f"delta = {after.tb - before.tb}"
            )
    return EXIT_OK if before is not None else EXIT_INFINITE


def cmd_convert(document: InputDocument, args: argparse.Namespace) -> int:
    if document.mode != "openbook":
        raise UsageError("convert requires an openbook document")
    _print_context(document, args)
    write_document(
        InputDocument(
            heegaard=_heegaard_view(document),
            name=document.name,
            description=document.description,
        ),
        args.output,
    )
    if args.machine:
        print(json.dumps({"output": str(args.output)}, indent=2))
    else:
        print(f"wrote {args.output}")
    return EXIT_OK


@contextmanager
def _exact_int_output():
    """Let results print however many digits they have.

    CPython 3.10.7+ refuses to turn an int of more than 4300 digits into
    text by default, and certificates can outgrow that.  The limit is
    lifted only while a command runs, so parsing still rejects such
    literals in the input.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


_HANDLERS = {
    "tb": cmd_tb,
    "homology": cmd_homology,
    "stabilize": cmd_stabilize,
    "convert": cmd_convert,
}


# built once per process: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        document = _load(args)
        with _exact_int_output():
            return _HANDLERS[args.command](document, args)
    except (UsageError, DocumentError) as error:
        print(f"tbcalc: error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as error:
        print(f"tbcalc: error: {error}", file=sys.stderr)
        return EXIT_INPUT
