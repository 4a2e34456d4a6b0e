"""Checks one CLI output against ``oracle``, never against tbcalc itself.

``check_op`` returns None for a correct output and a reason otherwise.
Open-book pairing matrices are recomputed by forward substitution over
the twist word; Heegaard matrices are taken as given.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle


def problem_data(doc: dict):
    """(C, A, I, dividing) of a document; for open books I is A."""
    if doc["mode"] == "openbook":
        twists = doc["twists"]
        a = doc["knot"]["arcs"]
        c = oracle.monodromy(len(a), [t["sign"] for t in twists], [t["arcs"] for t in twists],
                             doc["twist_pairings"])
        return c, a, a, 0
    return doc["C"], doc["A"], doc["I"], doc.get("dividing", 0)


def _group_text(torsion, free_rank) -> str:
    parts = ["Z" if free_rank == 1 else f"Z^{free_rank}"] if free_rank else []
    parts += [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"


def _group(rows) -> dict:
    torsion, free_rank = oracle.group(oracle.invariant_factors(rows))
    return {"torsion": list(torsion), "free_rank": free_rank, "text": _group_text(torsion, free_rank)}


class _Oracle:
    """The exact answers for one document, computed once."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.c, self.a, self.i, self.dividing = problem_data(doc)
        self.order = oracle.order(self.c, self.a)
        self.solution = oracle.rational_solution(self.c, self.a)
        # knot pairing vector (A on a page, I on a surface) against ker C
        self.pairing = self.a if doc["mode"] == "openbook" else self.i
        self.orthogonal = oracle.rank(oracle.with_row(self.c, self.pairing)) == oracle.rank(self.c)

    def tb(self, certificate, order) -> Fraction:
        value = Fraction(oracle.dot(certificate, self.pairing), order)
        if self.doc["mode"] == "openbook":
            return -value
        return Fraction(-self.dividing, 2) + value

    def unique_tb(self) -> Fraction | None:
        """tb from an independent rational solution, when it is well defined."""
        if self.order is None or not self.orthogonal:
            return None
        return self.tb([v * self.order for v in self.solution], self.order)


def _check_tb(o: _Oracle, rc: int, payload: dict) -> str | None:
    if o.order is None:
        if rc != 2 or payload != {"verdict": "infinite order"}:
            return f"expected infinite order (exit 2), got exit {rc}: {payload}"
        return None
    if rc != 0:
        return f"expected exit 0 with order {o.order}, got exit {rc}"
    d, e = payload["order"], payload["certificate"]
    if d != o.order:
        return f"order {d}, expected {o.order}"
    verdict = "nullhomologous" if d == 1 else f"rationally nullhomologous of order {d}"
    if payload["verdict"] != verdict:
        return f"verdict {payload['verdict']!r}, expected {verdict!r}"
    if len(e) != len(o.a) or oracle.matvec(o.c, e) != [d * x for x in o.a]:
        return "certificate fails C @ E == d * A"
    tb = Fraction(payload["tb_numerator"], payload["tb_denominator"])
    if (tb.numerator, tb.denominator) != (payload["tb_numerator"], payload["tb_denominator"]):
        return "tb is not in lowest terms"
    if tb != o.tb(e, d):
        return f"tb {tb} does not follow from the certificate ({o.tb(e, d)})"
    if payload["kernel_orthogonal"] != o.orthogonal:
        return f"kernel_orthogonal {payload['kernel_orthogonal']}, expected {o.orthogonal}"
    unique = o.unique_tb()
    if unique is not None and tb != unique:
        return f"tb {tb}, expected {unique}"
    return None


def _check_homology(o: _Oracle, rc: int, payload: dict) -> str | None:
    if rc != 0:
        return f"expected exit 0, got {rc}"
    expected = {"h1_manifold": _group(o.c), "h1_complement": None, "complement_lemma": None}
    if o.order == 1:
        manifold = expected["h1_manifold"]
        exterior = _group(oracle.with_row(o.c, [-x for x in o.i]))
        expected["h1_complement"] = exterior
        expected["complement_lemma"] = (exterior["torsion"] == manifold["torsion"]
                                        and exterior["free_rank"] == manifold["free_rank"] + 1)
    if payload != expected:
        return f"homology {payload}, expected {expected}"
    return None


def stabilized(doc: dict, sign: int) -> dict:
    """The document ``stabilize`` must write: one new arc, one new twist."""
    n = len(doc["knot"]["arcs"])
    out = {k: doc[k] for k in ("mode", "name", "description") if k in doc}
    out["page"] = {"genus": doc["page"]["genus"], "boundary": doc["page"]["boundary"] + 1}
    out["twists"] = [{"sign": t["sign"], "arcs": t["arcs"] + [0]} for t in doc["twists"]]
    out["twists"].append({"sign": sign, "arcs": [0] * n + [1]})
    out["twist_pairings"] = [row + [0] for row in doc["twist_pairings"]]
    out["twist_pairings"].append([0] * (len(doc["twists"]) + 1))
    out["knot"] = {"arcs": doc["knot"]["arcs"] + [1]}
    return out


def _check_stabilize(o: _Oracle, rc: int, payload: dict, sign: int, written: str | None) -> str | None:
    if o.order is None:
        return None if rc == 2 else f"expected exit 2 for a knot of infinite order, got {rc}"
    if rc != 0:
        return f"expected exit 0, got {rc}"
    if payload["sign"] != sign:
        return f"sign {payload['sign']}, expected {sign}"
    before = Fraction(payload["tb_before"]["numerator"], payload["tb_before"]["denominator"])
    after = Fraction(payload["tb_after"]["numerator"], payload["tb_after"]["denominator"])
    delta = Fraction(payload["delta"]["numerator"], payload["delta"]["denominator"])
    if after - before != delta:
        return f"delta {delta} is not tb_after - tb_before ({after} - {before})"
    # the stabilization law holds when tb does not depend on the certificate
    if o.orthogonal and delta != -sign:
        return f"delta {delta}, expected {-sign}"
    unique = o.unique_tb()
    if unique is not None and before != unique:
        return f"tb_before {before}, expected {unique}"
    if written is None or json.loads(written) != stabilized(o.doc, sign):
        return "the written document is not the stabilized open book"
    return None


class Checker:
    """Checks CLI outputs, computing each document's exact answers once."""

    def __init__(self) -> None:
        self._oracles: dict[str, _Oracle] = {}

    def check_op(self, key: str, doc: dict, argv: list[str], rc, stdout: str,
                 written: str | None = None) -> str | None:
        """None when ``stdout`` and exit code ``rc`` of ``tbcalc <argv>`` are right.

        ``key`` identifies ``doc``; ``written`` is the text of the file a
        ``stabilize`` op wrote.
        """
        if rc is None:
            return "the op did not return"
        if key not in self._oracles:
            self._oracles[key] = _Oracle(doc)
        o = self._oracles[key]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {stdout[:200]!r}"
        command = argv[0]
        try:
            if command == "tb":
                return _check_tb(o, rc, payload)
            if command == "homology":
                return _check_homology(o, rc, payload)
            if command == "stabilize":
                sign = int(argv[argv.index("--sign") + 1])
                return _check_stabilize(o, rc, payload, sign, written)
        except (KeyError, TypeError) as error:
            return f"malformed payload ({error!r}): {stdout[:200]!r}"
        return f"no check for command {command!r}"
