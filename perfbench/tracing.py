"""Spans around tbcalc's documented entry points, recorded from outside.

``Tracer.install`` rebinds every function of the README's entry-point
table at each tbcalc module that holds it by name (``tbcalc.cli``,
``tbcalc.heegaard.minimal_order`` and so on), so calls between modules
pass through the wrappers too; ``uninstall`` puts the originals back.
Spans stay in memory as (name, start_ns, end_ns, parent, op, attrs) and
are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

ENTRY_POINTS = {
    "documents": ("load_document", "parse_document", "dumps_document", "write_document"),
    "openbook": ("monodromy_matrix", "tb_open_book", "stabilize", "to_heegaard"),
    "heegaard": ("tb_heegaard", "nullhomologous_check"),
    "homology": ("h1_manifold", "h1_complement", "verify_complement_lemma"),
    "lattice": ("smith_normal_form", "solve_integer", "minimal_order", "kernel_basis", "invariant_factors"),
}
ROOT = "cli.main"


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _attrs(name: str, args, result) -> dict:
    """Counts taken where the work happens; their cost is not self time."""
    if name == "lattice.smith_normal_form":
        m = args[0]
        return {"input": hash((m.rows, m.cols, m.entries)),
                "transform_bits": _bits(result.U.entries + result.V.entries)}
    if name == "openbook.monodromy_matrix":
        return {"c_bits": _bits(result.entries)}
    if name == "documents.dumps_document":
        return {"bytes_out": len(result.encode())}
    return {}


class Tracer:
    """Records spans for the ops run while it is installed; ``op`` tags them."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, op, attrs, bookkeeping_ns]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, {}, 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            span = self.spans[index]
            span[5] = _attrs(name, args, result)
            # the parent's clock runs on while the counts are taken
            span[6] = time.perf_counter_ns() - span[2]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "tbcalc" or key.startswith("tbcalc.")]
        self.absent = []
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules.get(f"tbcalc.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, attrs, book in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                                    "op": op, "bookkeeping_ns": book, **attrs}) + "\n")


def self_times(spans: list[dict]) -> list[int]:
    """Per span: duration minus the child spans' intervals and bookkeeping."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"] + s["bookkeeping_ns"]
    return own


_SELF_MS = {
    "cli.self_ms": (ROOT,),
    "documents.parse.self_ms": ("documents.load_document", "documents.parse_document"),
    "documents.write.self_ms": ("documents.write_document", "documents.dumps_document"),
    "openbook.monodromy.self_ms": ("openbook.monodromy_matrix",),
    "openbook.stabilize.self_ms": ("openbook.stabilize",),
    "lattice.snf.self_ms": ("lattice.smith_normal_form",),
    "lattice.minimal_order.self_ms": ("lattice.minimal_order",),
    "lattice.kernel_basis.self_ms": ("lattice.kernel_basis",),
    "lattice.solve_integer.self_ms": ("lattice.solve_integer",),
    "lattice.invariant_factors.self_ms": ("lattice.invariant_factors",),
    "heegaard.tb.self_ms": ("heegaard.tb_heegaard",),
    "homology.self_ms": tuple(f"homology.{n}" for n in ENTRY_POINTS["homology"]),
}
_CALLS = {
    "openbook.monodromy.calls": ("openbook.monodromy_matrix",),
    "lattice.snf.calls": ("lattice.smith_normal_form",),
    "heegaard.nullhomologous_check.calls": ("heegaard.nullhomologous_check",),
    "homology.calls": _SELF_MS["homology.self_ms"],
}


def layer_metrics(spans: list[dict], outcomes: dict[int, str]) -> tuple[dict, dict]:
    """Per-op layer metrics, and a breakdown used to confirm the workload split.

    ``outcomes`` labels each traced op (its command and how far the query
    went).  The breakdown holds the SNF calls per op seen under each label
    and each layer's share of the total traced op time.
    """
    ops = max(len(outcomes), 1)
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, s in enumerate(spans):
        by_name[s["name"]].append(index)

    def total_ms(names):
        return sum(own[i] for n in names for i in by_name[n]) / 1e6

    metrics = {key: total_ms(names) / ops for key, names in _SELF_MS.items()}
    metrics.update({key: sum(len(by_name[n]) for n in names) / ops for key, names in _CALLS.items()})

    roots = [spans[i] for i in by_name[ROOT]]
    metrics["cli.bytes_out"] = sum(s.get("bytes_out", 0) for s in roots) / ops
    metrics["documents.bytes_in"] = sum(s.get("bytes_in", 0) for s in roots) / ops
    metrics["documents.bytes_out"] = sum(spans[i]["bytes_out"] for i in by_name["documents.dumps_document"]) / ops
    metrics["openbook.c_bits.max"] = max((spans[i]["c_bits"] for i in by_name["openbook.monodromy_matrix"]), default=0)
    snf = [spans[i] for i in by_name["lattice.smith_normal_form"]]
    metrics["lattice.transform_bits.max"] = max((s["transform_bits"] for s in snf), default=0)
    distinct = len({(s["op"], s["input"]) for s in snf})
    metrics["lattice.snf.distinct_frac"] = distinct / len(snf) if snf else 0.0

    snf_calls: dict[str, list[int]] = defaultdict(list)
    per_op = defaultdict(int)
    for s in snf:
        per_op[s["op"]] += 1
    for op, label in outcomes.items():
        snf_calls[label].append(per_op[op])
    op_ns = sum(s["end_ns"] - s["start_ns"] for s in roots) or 1
    shares = defaultdict(float)
    for index, s in enumerate(spans):
        shares[s["name"].split(".")[0]] += own[index] / op_ns
    breakdown = {
        "snf_calls_per_op": {c: sorted(set(v)) for c, v in snf_calls.items()},
        "layer_share": dict(sorted(shares.items())),
    }
    return metrics, breakdown
