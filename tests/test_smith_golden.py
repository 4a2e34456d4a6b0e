"""The Smith forms smith_normal_form returns are pinned.

For 408 seeded matrices, of every shape from 0x0 to 7x7 and every rank
each shape allows, 140 of them with entries of 30 bits or more,
`tests/data/golden/smith.json` holds U, D, V and rank, one matrix a
line.  The property tests check that any decomposition is a Smith form;
this file pins which one the pivots reach, since for a singular matrix
the certificate tbcalc prints depends on it.  After an intended change
of the pivots, rewrite that file with
`PYTHONPATH=src python tests/test_smith_golden.py`.
"""

import json
import random

import conftest
import oracles
from tbcalc import IntegerMatrix, smith_normal_form

GOLDEN = conftest.DATA / "golden" / "smith.json"
MAX_DIM = 7


def seeded_matrix(seed, rows, cols, rank, big):
    """A rows x cols matrix of rank exactly rank: a product through a
    rank-dimensional space, its right factor's entries up to 2**31 when
    big."""
    rng = random.Random(seed)
    bound = 2**31 if big else 3
    while True:
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
        product = [
            [sum(row[k] * right[k][j] for k in range(rank)) for j in range(cols)] for row in left
        ]
        if oracles.rational_rank(product) == rank:
            return IntegerMatrix(rows, cols, tuple([e for row in product for e in row]))


def smith_table():
    table = []
    for rows in range(MAX_DIM + 1):
        for cols in range(MAX_DIM + 1):
            for rank in range(min(rows, cols) + 1):
                for big in (False, True):
                    matrix = seeded_matrix(len(table), rows, cols, rank, big)
                    smith = smith_normal_form(matrix)
                    table.append(
                        {
                            "rows": rows,
                            "cols": cols,
                            "M": list(matrix.entries),
                            "U": list(smith.U.entries),
                            "D": list(smith.D.entries),
                            "V": list(smith.V.entries),
                            "rank": smith.rank,
                        }
                    )
    return table


def test_every_matrix_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    table = smith_table()
    assert len(table) == len(golden)
    differing = [i for i, (case, pinned) in enumerate(zip(table, golden)) if case != pinned]
    assert differing == []


def test_golden_covers_every_shape_rank_and_30_bit_entries():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) >= 400
    assert {(case["rows"], case["cols"], case["rank"]) for case in golden} == {
        (rows, cols, rank)
        for rows in range(MAX_DIM + 1)
        for cols in range(MAX_DIM + 1)
        for rank in range(min(rows, cols) + 1)
    }
    wide = [case for case in golden if max([abs(e) for e in case["M"]], default=0) >= 2**29]
    assert len(wide) >= 100


def write_golden_file():
    lines = [json.dumps(case) for case in smith_table()]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    write_golden_file()
