"""tbcalc benchmark: end-to-end CLI latency on seeded workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a tbcalc checkout.  Workloads: ob-tb, ob-longword,
heegaard-homology (see README.md beside this file).  Each run writes
the seeded documents, then starts SETUP_PROBES + 1 fresh worker
interpreters one after another; the last one measures (worker.py).
Times are CPU times scaled by the reference kernel timed around each
of them (worker.py; README.md, "Timing").  Every output is then checked
here, outside any timed region, against the independent oracle
(check.py).  The last line of stdout is one JSON object: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run, named and with the units that BENCHMARK.json at the checkout root
lists.
Per-op rows, with each document's descriptors, are kept under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import check  # noqa: E402  (imported from this directory)
import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# set-up is timed in each of SETUP_PROBES + 1 interpreters; setup_s is the median
SETUP_PROBES = 8
# set-up and measuring of one worker; keeps the whole run well under 180 s
WORKER_TIMEOUT_S = 150

def spawn_worker(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter and return its summary line."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def write_cases(workload: str, seed: int, out: Path) -> None:
    """Write the seeded documents under out/docs, their list to
    out/cases.jsonl and the warm-up document's ops to out/warm-up.json."""
    cases = gen.generate(workload, seed)
    per_round = len(gen.SIZES[workload])
    docs = out / "docs"
    docs.mkdir(parents=True)
    warm = gen.warm_up(workload, seed)
    path = docs / f"{warm.name}.json"
    path.write_text(warm.text())
    (out / "warm-up.json").write_text(json.dumps({"path": str(path), "ops": warm.ops}))
    with open(out / "cases.jsonl", "w") as f:
        for index, case in enumerate(cases):
            path = docs / f"{case.name}.json"
            path.write_text(case.text())
            f.write(json.dumps({"name": case.name, "path": str(path), "ops": case.ops,
                                "round": index // per_round, "descriptor": case.descriptor}) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def check_rows(rows: list[dict], cases: list[dict]) -> list[str | None]:
    """One failure reason (or None) per row.

    The first run of each (document, op) is checked in full; a repeat must
    print exactly what the checked run printed.
    """
    checker = check.Checker()
    docs: dict[int, dict] = {}
    verified: dict[tuple, tuple] = {}
    reasons = []
    for row in rows:
        key = (row["case"], *row["argv"])
        reason = row["error"] or row.get("traced_error")
        if reason is None and "traced_stdout" in row and (row["traced_rc"], row["traced_stdout"]) != (row["rc"], row["stdout"]):
            reason = "traced output differs from untraced output"
        if reason is None and key in verified:
            if (row["rc"], row["stdout"]) != verified[key]:
                reason = "output differs from an earlier, checked run of the same op"
        elif reason is None:
            case = cases[row["case"]]
            if row["case"] not in docs:
                docs[row["case"]] = json.loads(Path(case["path"]).read_text())
            written = None
            if row["argv"][0] == "stabilize":
                out = Path(row["argv"][row["argv"].index("-o") + 1])
                written = out.read_text() if out.exists() else None
            reason = checker.check_op(case["name"], docs[row["case"]], row["argv"], row["rc"],
                                      row["stdout"], written)
            if reason is None:
                verified[key] = (row["rc"], row["stdout"])
        reasons.append(reason)
    return reasons


def cert_bits(row: dict) -> int | None:
    """Bit-length of the largest certificate entry a tb op printed."""
    if row["argv"][0] != "tb" or row["rc"] != 0:
        return None
    return max((abs(e).bit_length() for e in json.loads(row["stdout"])["certificate"]), default=0)


def outcome(row: dict, reason: str | None) -> str:
    """The op's command and how far the query went (for the SNF call counts)."""
    if reason is not None:
        return f"{row['argv'][0]} (failed)"
    if row["argv"][0] == "homology":
        exterior = json.loads(row["stdout"])["h1_complement"] is not None
        return f"homology ({'with' if exterior else 'without'} exterior)"
    return f"{row['argv'][0]} (exit {row['rc']})"


def end_to_end(rows: list[dict], setups: list[float], summary: dict) -> dict:
    """Times are scaled to the reference speed: ``row["scaled_s"]`` and ``setups``."""
    ms = sorted(row["scaled_s"] * 1e3 for row in rows)
    rounds: dict[int, list[float]] = {}
    for row in rows:
        rounds.setdefault(row["round"], []).append(row["scaled_s"])
    size = max(len(times) for times in rounds.values())
    return {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[-1],
        # median over the complete rounds, each one document of every size
        "ops_per_s": statistics.median(size / sum(t) for t in rounds.values() if len(t) == size),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "tbcalc" / "cli.py").is_file():
        print(f"run.py: no tbcalc sources under {ROOT / 'src'}; run from a tbcalc checkout",
              file=sys.stderr)
        return 2
    # certificates and torsion orders may exceed CPython's default limit
    # for int <-> str conversion; this process only reads them
    sys.set_int_max_str_digits(0)

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    write_cases(args.workload, args.seed, out)
    probes = [spawn_worker(["--dir", str(out)]) for _ in range(SETUP_PROBES)]
    summary = spawn_worker(["--dir", str(out), "--seconds", str(args.seconds), "--trace", str(args.trace)])
    probes.append(summary)
    # each time is scaled by the reference kernel timed around it
    nominal = worker.REFERENCE_NOMINAL_S
    setups = [probe["setup_s"] * nominal / probe["reference_s"] for probe in probes]

    cases = read_jsonl(out / "cases.jsonl")
    rows = read_jsonl(out / "rows.jsonl")
    for row in rows:
        row["scaled_s"] = row["s"] * nominal / row["reference_s"]
    reasons = check_rows(rows, cases)
    failed = sum(reason is not None for reason in reasons)
    bits = [cert_bits(row) if reason is None else None for row, reason in zip(rows, reasons)]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    if args.trace:
        spans = read_jsonl(out / "spans.jsonl")
        outcomes = {row["op"]: outcome(row, reason) for row, reason in zip(rows, reasons)}
        metrics, breakdown = tracing.layer_metrics(spans, outcomes)
        metrics["trace.overhead_frac"] = sum(r["traced_s"] for r in rows) / sum(r["s"] for r in rows) - 1
    else:
        metrics = end_to_end(rows, setups, summary)
        above = sum(row["scaled_s"] * 1e3 > metrics["op_ms.p90"] for row in rows)
        breakdown = {"op_ms.p90 samples": f"{len(rows)}, of which {above} above it"}
    metrics["cert_bits.max"] = max((b for b in bits if b is not None), default=0)

    with open(out / "results.jsonl", "w") as f:
        for row, reason, b in zip(rows, reasons, bits):
            case = cases[row["case"]]
            f.write(json.dumps({"op": row["op"], "round": row["round"], "doc": case["name"],
                                **case["descriptor"], "command": row["argv"][0], "exit": row["rc"],
                                "ms": row["scaled_s"] * 1e3, "cpu_ms": row["s"] * 1e3,
                                "wall_ms": row["wall_s"] * 1e3, "cert_bits": b, "failure": reason}) + "\n")
    shutil.rmtree(out / "docs", ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(rows)} ops on {len(cases)} documents, "
          f"failed_frac {failed / len(rows):.6g} ({failed} failed), "
          f"cert_bits.max {metrics['cert_bits.max']} bits")
    slowdown = statistics.median(row["reference_s"] for row in rows) / nominal
    print(f"  host slowdown {slowdown:.4f} (median reference kernel time / nominal); "
          f"unscaled op ms p50: CPU {statistics.median(row['s'] for row in rows) * 1e3:.4g}, "
          f"wall {statistics.median(row['wall_s'] for row in rows) * 1e3:.4g}")
    print(f"  set-up s: scaled {[round(x, 4) for x in setups]}, "
          f"CPU {[round(probe['setup_s'], 4) for probe in probes]}, "
          f"wall {[round(probe['setup_wall_s'], 4) for probe in probes]}")
    for row, reason in zip(rows, reasons):
        if reason is not None:
            print(f"  FAILED op {row['op']} {' '.join(row['argv'])}: {reason}")
    if summary.get("absent"):
        print(f"  absent entry points, reported as zero: {', '.join(summary['absent'])}")
    for key, value in breakdown.items():
        print(f"  {key}: {value}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
