"""Tuples in tbcalc are built from lists, tuples or slices, never lazily.

CPython allocates ``tuple(<generator>)`` at a guessed size and resizes
it.  A resized tuple of fewer than 20 entries then dies into the free
list of a size that allocation never draws from, and each such list
keeps up to 2000 tuples for the life of the process.  The AST guard
names every call site that does this; the memory test catches what the
guard cannot see, such as a generator handed in by a caller.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAZY_BUILTINS = {"map", "filter", "zip", "enumerate"}


def _itertools_names(tree: ast.Module) -> set[str]:
    """The local names bound to itertools or to anything imported from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name for alias in node.names if alias.name == "itertools"
            )
    return names


def _is_lazy(argument: ast.expr, itertools_names: set[str]) -> bool:
    if isinstance(argument, ast.GeneratorExp):
        return True
    if not isinstance(argument, ast.Call):
        return False
    func = argument.func
    if isinstance(func, ast.Name):
        return func.id in LAZY_BUILTINS or func.id in itertools_names
    while isinstance(func, ast.Attribute):  # chain.from_iterable, itertools.chain
        func = func.value
    return isinstance(func, ast.Name) and func.id in itertools_names


def lazy_tuple_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of every ``tuple(...)`` whose argument is a generator
    expression or a call to map, filter, zip, enumerate or itertools."""
    tree = ast.parse(source, filename)
    itertools_names = _itertools_names(tree)
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and node.args
        and _is_lazy(node.args[0], itertools_names)
    ]


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("tuple(x for x in y)", True),
        ("tuple(map(f, y))", True),
        ("tuple(filter(None, y))", True),
        ("tuple(zip(a, b))", True),
        ("tuple(enumerate(y))", True),
        ("from itertools import chain\ntuple(chain.from_iterable(y))", True),
        ("from itertools import islice as cut\ntuple(cut(y, 3))", True),
        ("import itertools\ntuple(itertools.chain(a, b))", True),
        ("tuple([x for x in y])", False),
        ("from itertools import chain\ntuple(list(chain.from_iterable(y)))", False),
        ("tuple(y)", False),
        ("tuple(y[1:])", False),
        ("tuple()", False),
        ("[tuple(r) for r in rows]", False),
        ("tuple(obj.map(f))", False),
    ],
)
def test_guard_recognizes(source, flagged):
    assert bool(lazy_tuple_calls(source, "example.py")) is flagged


def test_no_tuple_is_built_lazily():
    paths = sorted((SRC / "tbcalc").glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        offenders += lazy_tuple_calls(path.read_text(), str(path.relative_to(SRC)))
    assert offenders == [], "tuple(...) built from a generator or lazy iterator at " + ", ".join(
        offenders
    )


QUERIES = textwrap.dedent(
    """
    import random
    from tbcalc.lattice import IntegerMatrix, minimal_order, smith_normal_form

    def rss_kb():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])

    rng = random.Random(8)
    cases = []
    for n in range(1, 20):
        matrix = IntegerMatrix(n, n, tuple([rng.randint(-3, 3) for _ in range(n * n)]))
        vector = tuple([rng.randint(-3, 3) for _ in range(n)])
        cases.append((matrix, smith_normal_form(matrix), vector))

    def one_round():
        for matrix, smith, vector in cases:
            matrix @ vector
            smith.diagonal()
            minimal_order(smith, vector)

    one_round()
    before = rss_kb()
    for _ in range(700):
        one_round()
    print(rss_kb() - before)
    """
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_queries_leave_no_memory_behind():
    """700 rounds of products, diagonals and orders on n x n matrices,
    n = 1..19, each a few thousand tuples per size: built lazily they
    would fill the free lists by about 4.5 MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", QUERIES], capture_output=True, text=True, env=env, check=True
    )
    growth_kb = int(result.stdout)
    assert growth_kb < 1024, f"RSS grew by {growth_kb} KB over 700 rounds of queries"
