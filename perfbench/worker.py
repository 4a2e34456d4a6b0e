"""One workload in a fresh interpreter: set up, then a timed closed loop.

    python3 perfbench/worker.py --dir D --t0 T [--seconds S] [--trace 0|1]

D holds the seeded documents, D/cases.jsonl, their list, and
D/warm-up.json (run.py writes them).  Set-up imports ``tbcalc.cli`` from
the checkout's ``src``, reads that list and runs every op of the warm-up
document once.  Without ``--seconds`` the worker stops there (a set-up
probe).  Otherwise one client calls ``tbcalc.cli.main`` in-process, op after op, with
stdout and stderr captured in memory, until S seconds have passed and at
least MIN_OPS ops are done.  Only the ``main`` call is timed, in CPU
time of this thread and in wall time, and the reference kernel is timed
right before and after it.  Rows go to D/rows.jsonl, spans (with
--trace 1) to D/spans.jsonl, and one JSON summary line to stdout.
Set-up time is the CPU time of this process from its start, so it
includes start-up, without the kernel calls that bracket it; T is the
monotonic clock reading taken just before this interpreter was started,
for the set-up's wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import tracing  # noqa: E402  (imported from this directory, next to the worker)

# Large enough that the seed never reaches it; an op that does is a failure.
OP_BUDGET_S = 60
# p90 needs at least ten samples above it.
MIN_OPS = 100
# The host's speed changes by up to 1.8x from one second to the next, in
# CPU time too (other guests share its cores), and it exposes no
# instruction counters.  So a fixed reference kernel is timed right
# before and right after every measured op, and run.py scales the op to
# the speed at which one kernel call takes REFERENCE_NOMINAL_S (about its
# median on a 2-vCPU Xeon VM with Python 3.11).
REFERENCE_NOMINAL_S = 0.0010


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds tbcalc does; independent of tbcalc."""
    # fraction-free elimination: big-int products and list comprehensions
    n = 9
    m = [[(i * 7 + j * 13) % 29 - 14 + 31 * (i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = m[k]
        for i in range(k + 1, n):
            f, g = m[i][k], pivot[k]
            m[i] = [g * x - f * y for x, y in zip(m[i], pivot)]
    # dict updates and small-int arithmetic
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 255] = counts.get(i & 255, 0) + i * i
    return m[-1][-1] + counts[7]


def time_reference() -> float:
    """CPU seconds of one kernel call, with the collector off so that the
    heap the ops left behind does not slow the kernel."""
    gc.disable()
    try:
        start = time.thread_time()
        reference_kernel()
        return time.thread_time() - start
    finally:
        gc.enable()


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    Not ``ru_maxrss``: the worker is started by vfork and exec, and
    ``ru_maxrss`` then also holds the peak of run.py, which made the
    documents.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Overrun(Exception):
    """An op ran past OP_BUDGET_S (not an OSError, so cli.main lets it out)."""


def _overrun(signum, frame):
    raise Overrun


def import_cli():
    sys.path.insert(0, str(SRC))
    import tbcalc.cli

    where = Path(tbcalc.cli.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"tbcalc was imported from {where}, not from {SRC}")
    return tbcalc.cli


def call(main, argv: list[str], tracer: tracing.Tracer | None = None):
    """(exit code or None, stdout, stderr, error, CPU seconds, wall seconds) of one op.

    The CPU time is this thread's: time the host takes the virtual CPU
    away for another guest (steal) does not count.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    start = time.perf_counter()
    start_cpu = time.thread_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(argv)
            else:
                span = tracer.open(tracing.ROOT)
                try:
                    rc = main(argv)
                finally:
                    tracer.close(span)
    except Overrun:
        error = f"overran its {OP_BUDGET_S} s budget"
    except SystemExit as exit_:
        rc = exit_.code
    except Exception as exc:  # the op failed; the workload goes on
        error = f"raised {exc!r}"[:500]
    finally:
        cpu = time.thread_time() - start_cpu
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), err.getvalue(), error, cpu, wall


def traced_call(main, argv: list[str], tracer: tracing.Tracer, op: int, path: Path):
    """``call`` with spans recorded around the entry points, under op id ``op``."""
    tracer.op = op
    root = len(tracer.spans)
    tracer.install()
    try:
        result = call(main, argv, tracer)
    finally:
        tracer.uninstall()
    tracer.spans[root][5] = {"bytes_in": path.stat().st_size, "bytes_out": len(result[1].encode())}
    return result


def op_argv(path: Path, op) -> list[str]:
    argv = [op[0], str(path), *op[1:]]
    if op[0] == "stabilize":
        argv += ["-o", str(path.with_suffix(".stab.json"))]
    return argv


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    before = [time_reference() for _ in range(3)]
    cli = import_cli()
    signal.signal(signal.SIGALRM, _overrun)
    with open(args.dir / "cases.jsonl") as f:
        cases = [json.loads(line) for line in f]
    paths = [Path(case["path"]) for case in cases]
    # warm-up: every op of a small document of fixed size, untimed
    warm = json.loads((args.dir / "warm-up.json").read_text())
    for op in warm["ops"]:
        call(cli.main, op_argv(Path(warm["path"]), op))
    setup_wall_s = time.monotonic() - args.t0
    setup_s = time.process_time() - sum(before)
    after = [time_reference() for _ in range(3)]
    setup = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
             "reference_s": (statistics.median(before) + statistics.median(after)) / 2}
    if args.seconds is None:
        print(json.dumps(setup))
        return 0

    ops = [(index, op) for index, case in enumerate(cases) for op in case["ops"]]
    round_ops = sum(len(case["ops"]) for case in cases if case["round"] == 0)
    tracer = tracing.Tracer() if args.trace else None
    rows = []
    deadline = time.monotonic() + args.seconds
    reference = time_reference()
    k = 0
    while k < MIN_OPS or time.monotonic() < deadline:
        index, op = ops[k % len(ops)]
        argv = op_argv(paths[index], op)
        row = {"op": k, "round": k // round_ops, "case": index, "argv": argv}
        # with --trace 1 every op also runs traced, before or after the
        # untraced run in turn; the kernel brackets the untraced run only
        if tracer is not None and k % 2:
            traced = traced_call(cli.main, argv, tracer, k, paths[index])
            reference = time_reference()
        rc, out, err, error, seconds, wall = call(cli.main, argv)
        before, reference = reference, time_reference()
        if tracer is not None and not k % 2:
            traced = traced_call(cli.main, argv, tracer, k, paths[index])
            reference = time_reference()
        if tracer is not None:
            row.update(traced_rc=traced[0], traced_stdout=traced[1], traced_error=traced[3],
                       traced_s=traced[4])
        row.update(rc=rc, stdout=out, stderr=err[-500:], error=error, s=seconds, wall_s=wall,
                   reference_s=(before + reference) / 2)
        rows.append(row)
        k += 1

    with open(args.dir / "rows.jsonl", "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    summary = {
        **setup,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        tracer.dump(args.dir / "spans.jsonl")
        summary["absent"] = tracer.absent
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
