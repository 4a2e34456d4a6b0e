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
import io
import json
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from fractions import Fraction

from .documents import (
    DocumentError,
    InputDocument,
    ValidationError,
    load_document,
    write_document,
)
from .heegaard import HeegaardData, TbResult, tb_heegaard
from .homology import AbelianGroup, h1_groups
from .lattice import IntegerMatrix
from .openbook import _doubled, _tb_across_stabilization, _view, stabilize

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFINITE = 2
# what a shell reports for a process that SIGPIPE ends: 128 + 13
EXIT_CLOSED_STDOUT = 141

VERDICT_INFINITE = "infinite order"
NO_KNOT_BLOCK = 'the document has no knot block; add "knot": {"arcs": [...]}'
NO_KNOT_DATA = 'the document has no knot data; add "A", "I" and "dividing"'


class UsageError(Exception):
    """A structurally valid document used with the wrong command."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but 2 means "infinite order" here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "input",
        nargs="?",
        default="-",
        help="input document (JSON); '-' or omitted reads standard input",
    )
    common.add_argument(
        "--stdin",
        action="store_true",
        help="read the document from standard input; give no path with it",
    )
    common.add_argument(
        "--json",
        action="store_true",
        dest="machine",
        help="machine-readable JSON on standard output",
    )
    common.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="print document context; repeat for the pairing matrix",
    )
    parser = _Parser(
        prog="tbcalc",
        description="Exact Thurston-Bennequin invariants from page or surface data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "tb", parents=[common], help="compute the Thurston-Bennequin invariant"
    )
    subparsers.add_parser(
        "homology", parents=[common], help="first homology of the manifold and knot exterior"
    )
    stab = subparsers.add_parser(
        "stabilize", parents=[common], help="stabilize an open book document once"
    )
    stab.add_argument(
        "--sign", required=True, choices=["+1", "-1"], help="stabilization sign"
    )
    stab.add_argument(
        "-o", "--output", required=True, help="path for the stabilized document"
    )
    convert = subparsers.add_parser(
        "convert", parents=[common], help="rewrite an open book as heegaard-mode data"
    )
    convert.add_argument(
        "-o", "--output", required=True, help="path for the converted document"
    )
    return parser


def _file(path: str) -> str:
    """The file a path argument names: main shows the argument as its bytes
    read as UTF-8, and the file system takes them in the locale's decoding."""
    return os.fsdecode(path.encode("utf-8", "surrogateescape"))


def _load(args: argparse.Namespace) -> InputDocument:
    if args.stdin and args.input != "-":
        raise UsageError(f"two inputs given, --stdin and {args.input}; give one")
    return load_document(sys.stdin if args.input == "-" else _file(args.input))


def _print_context(document: InputDocument, view: HeegaardData, verbose: int) -> None:
    if document.name or document.description:
        line = document.name or "(unnamed)"
        print(f"{line}: {document.description}" if document.description else line)
    if verbose > 1:
        print(f"pairing matrix C = {view.relations.to_rows()}")


# a handler's exit code, the payload --json prints, the lines printed without
# it, and the records main writes to the output path and then reports (None:
# nothing to write)
_Result = tuple[int, dict, list[str], dict | None]


def _warn_if_not_orthogonal(result: TbResult) -> None:
    if not result.kernel_orthogonal:
        print(
            "warning: the knot pairing vector is not orthogonal to the kernel of C; "
            "the reported tb depends on the certificate choice",
            file=sys.stderr,
        )


def _verdict(result: TbResult) -> str:
    if result.order == 1:
        return "nullhomologous"
    return f"rationally nullhomologous of order {result.order}"


def _fraction_obj(value: Fraction) -> dict:
    return {"numerator": value.numerator, "denominator": value.denominator}


def _group_obj(group: AbelianGroup) -> dict:
    return {
        "torsion": list(group.torsion),
        "free_rank": group.free_rank,
        "text": str(group),
    }


def cmd_tb(document: InputDocument, view: HeegaardData, args: argparse.Namespace) -> _Result:
    if view.knot_generators is None:
        raise UsageError(NO_KNOT_BLOCK if document.mode == "openbook" else NO_KNOT_DATA)
    result = tb_heegaard(view)
    if result is None:
        return EXIT_INFINITE, {"verdict": VERDICT_INFINITE}, [
            f"verdict: {VERDICT_INFINITE}",
            "no positive multiple of the knot class bounds; tb is undefined",
        ], None
    _warn_if_not_orthogonal(result)
    verdict = _verdict(result)
    payload = {
        "verdict": verdict,
        "order": result.order,
        "tb_numerator": result.tb.numerator,
        "tb_denominator": result.tb.denominator,
        "certificate": list(result.certificate),
        "kernel_orthogonal": result.kernel_orthogonal,
    }
    return EXIT_OK, payload, [
        f"verdict: {verdict}",
        f"order {result.order}, tb = {result.tb}",
        f"certificate E = {payload['certificate']}",
    ], None


def cmd_homology(document: InputDocument, view: HeegaardData, args: argparse.Namespace) -> _Result:
    groups = h1_groups(view)
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
    elif view.knot_generators is not None:
        lines.append("knot is not nullhomologous; exterior homology not reported")
    return EXIT_OK, payload, lines, None


def cmd_stabilize(document: InputDocument, view: HeegaardData, args: argparse.Namespace) -> _Result:
    if document.knot is None:
        raise UsageError(NO_KNOT_BLOCK)
    sign = int(args.sign)
    stabilized, knot = stabilize(document.open_book, document.knot, sign)
    before, after = _tb_across_stabilization(view, sign)
    records = {"open_book": stabilized, "knot": knot}
    if before is None:
        payload = {"sign": sign, "tb_before": None, "tb_after": None, "delta": None}
        return EXIT_INFINITE, payload, ["tb undefined before and after (knot class of infinite order)"], records
    _warn_if_not_orthogonal(before)
    delta = after.tb - before.tb
    payload = {
        "sign": sign,
        "tb_before": _fraction_obj(before.tb),
        "tb_after": _fraction_obj(after.tb),
        "delta": _fraction_obj(delta),
    }
    return EXIT_OK, payload, [f"tb before = {before.tb}, tb after = {after.tb}, delta = {delta}"], records


def _refuse_unreadable(relations: IntegerMatrix, digits: int) -> None:
    """Refuse, in the order the parser reads them, an entry of C of more
    than digits digits, which load_document would refuse; 0 sets no
    limit.  The sweep's products in a converted C can outgrow the digits
    the parser reads, though a stabilized book only copies the input's
    integers and adds 0 and +-1."""
    if digits:
        bound = 10**digits
        for index, entry in enumerate(relations.entries):
            if not -bound < entry < bound:
                i, j = divmod(index, relations.cols)
                raise ValidationError(
                    f"C[{i}][{j}]",
                    f"more than {digits} digits; the written document could not be read back",
                )


def cmd_convert(document: InputDocument, view: HeegaardData, args: argparse.Namespace) -> _Result:
    return EXIT_OK, {}, [], {"heegaard": _doubled(view)}


@contextmanager
def _exact_int_output():
    """Let results print however many digits they have.

    CPython 3.10.7+ refuses to turn an int of more than 4300 digits into
    text by default, and certificates can outgrow that.  The limit is
    lifted only while a command runs, so parsing still rejects such
    literals in the input.  Yields the limit it lifted, 0 for none.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield 0
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield previous
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
    # UTF-8 whatever the locale: stdin strict, as a path is read (under a C
    # locale it would pass undecodable bytes on as lone surrogates), and
    # output with a lone surrogate, which a JSON escape can name, escaped.
    # A stream with no encoding of its own (a StringIO) is left as it is.
    escaped = "backslashreplace"
    for stream, errors in ((sys.stdin, "strict"), (sys.stdout, escaped), (sys.stderr, escaped)):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(encoding="utf-8", errors=errors)
    if argv is None:
        # each argument as its bytes read as UTF-8 too: a C locale decodes
        # them as ASCII, with a lone surrogate for every other byte
        argv = [os.fsencode(arg).decode("utf-8", "surrogateescape") for arg in sys.argv[1:]]
    args = _PARSER.parse_args(argv)
    try:
        document = _load(args)
        # every command reads this one view: (C, A, -A) for an open book
        view = document.heegaard or _view(document.open_book, document.knot)
        # the most digits the parser let an integer have, 0 for no limit
        with _exact_int_output() as parse_digits:
            if args.verbose and not args.machine:
                _print_context(document, view, args.verbose)
            if args.command in ("stabilize", "convert") and document.mode != "openbook":
                raise UsageError(f"{args.command} requires an openbook document")
            code, payload, lines, records = _HANDLERS[args.command](document, view, args)
            if records is not None:
                written = InputDocument(**records, name=document.name, description=document.description)
                if written.heegaard is not None:
                    _refuse_unreadable(written.heegaard.relations, parse_digits)
                write_document(written, _file(args.output))
                payload = {"output": str(args.output), **payload}
                lines = [f"wrote {args.output}", *lines]
            print(json.dumps(payload, indent=2) if args.machine else "\n".join(lines))
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: print nothing, and send what is
        # still buffered to devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (UsageError, DocumentError, OSError) as error:
        print(f"tbcalc: error: {error}", file=sys.stderr)
        return EXIT_INPUT
