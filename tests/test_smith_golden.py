"""The Smith forms smith_normal_form returns are pinned.

For 408 seeded matrices, of every shape from 0x0 to 7x7 and every rank
each shape allows, 140 of them with entries of 30 bits or more, and 60
seeded matrices from 8x8 to 12x12 whose entries are mostly 0 and +-1,
`tests/data/golden/smith.json` holds U, D, V and rank, one matrix a
line.  The larger ones have zero rows and columns, runs of unit pivots
and, in at least ten of them, a pivot that fails to divide the block
left after its row and column are cleared, so the divisor-chain fix-up
runs.  The property tests check that any decomposition is a Smith form;
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
UNIT_RICH = 60


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


def unit_rich_matrix(seed):
    """An 8x8 to 12x12 matrix of mostly 0 and +-1 entries, by seed mod 3:
    sparse with up to two zero rows and columns; a permuted diagonal of
    units, zeros and small non-units; or such a diagonal mixed by row and
    column additions with factors +-1."""
    rng = random.Random(seed)
    rows, cols = rng.randint(8, 12), rng.randint(8, 12)
    if seed % 3 == 0:
        m = [rng.choices([0, 1, -1, 2, -2, 3], [10, 4, 4, 1, 1, 1], k=cols) for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, 2)):
            m[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, 2)):
            for row in m:
                row[j] = 0
    else:
        m = [[0] * cols for _ in range(rows)]
        places = rng.sample(range(cols), min(rows, cols))
        for i, j in zip(rng.sample(range(rows), len(places)), places):
            m[i][j] = rng.choice([0, 1, -1, 1, -1, 2, -2, 3, 4, 6, -9, 10])
        for _ in range(rows if seed % 3 == 2 else 0):
            a, b = rng.sample(range(rows), 2)
            m[b] = [x + rng.choice([1, -1]) * y for x, y in zip(m[b], m[a])]
            a, b = rng.sample(range(cols), 2)
            sign = rng.choice([1, -1])
            for row in m:
                row[b] += sign * row[a]
    return IntegerMatrix(rows, cols, tuple([e for row in m for e in row]))


def smith_table():
    matrices = []
    for rows in range(MAX_DIM + 1):
        for cols in range(MAX_DIM + 1):
            for rank in range(min(rows, cols) + 1):
                for big in (False, True):
                    matrices.append(seeded_matrix(len(matrices), rows, cols, rank, big))
    matrices += [unit_rich_matrix(len(matrices) + k) for k in range(UNIT_RICH)]
    table = []
    for matrix in matrices:
        smith = smith_normal_form(matrix)
        table.append(
            {
                "rows": matrix.rows,
                "cols": matrix.cols,
                "M": list(matrix.entries),
                "U": list(smith.U.entries),
                "D": list(smith.D.entries),
                "V": list(smith.V.entries),
                "rank": smith.rank,
            }
        )
    return table


def is_large(case):
    return max(case["rows"], case["cols"]) > MAX_DIM


def test_every_matrix_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    table = smith_table()
    assert len(table) == len(golden)
    differing = [i for i, (case, pinned) in enumerate(zip(table, golden)) if case != pinned]
    assert differing == []


def test_golden_covers_every_shape_rank_and_30_bit_entries():
    golden = [case for case in json.loads(GOLDEN.read_text()) if not is_large(case)]
    assert len(golden) >= 400
    assert {(case["rows"], case["cols"], case["rank"]) for case in golden} == {
        (rows, cols, rank)
        for rows in range(MAX_DIM + 1)
        for cols in range(MAX_DIM + 1)
        for rank in range(min(rows, cols) + 1)
    }
    wide = [case for case in golden if max([abs(e) for e in case["M"]], default=0) >= 2**29]
    assert len(wide) >= 100


def permuted_diagonal_fixup_fires(case):
    """True when M has at most one nonzero per row and column and its
    smallest non-unit entry, by absolute value, fails to divide another:
    the pivots then run up the entries by absolute value, the units
    first, until that entry is the pivot and the divisor-chain fix-up
    adds a row it does not divide."""
    rows, cols, m = case["rows"], case["cols"], case["M"]
    if any(sum(1 for j in range(cols) if m[i * cols + j]) > 1 for i in range(rows)):
        return False
    if any(sum(1 for i in range(rows) if m[i * cols + j]) > 1 for j in range(cols)):
        return False
    sizes = sorted([abs(e) for e in m if abs(e) > 1])
    return any(e % sizes[0] for e in sizes[1:])


def test_golden_has_unit_rich_matrices_up_to_12x12():
    large = [case for case in json.loads(GOLDEN.read_text()) if is_large(case)]
    assert len(large) == UNIT_RICH
    assert all(8 <= case["rows"] <= 12 and 8 <= case["cols"] <= 12 for case in large)
    entries = [e for case in large for e in case["M"]]
    assert sum(1 for e in entries if abs(e) <= 1) >= 0.8 * len(entries)

    def has_zero_line(case):
        cols, m = case["cols"], case["M"]
        rows = [m[i : i + cols] for i in range(0, len(m), cols)]
        return not all(map(any, rows + [m[j::cols] for j in range(cols)]))

    assert sum(1 for case in large if has_zero_line(case)) >= 20
    unit_pivots = [sum(1 for e in case["D"][:: case["cols"] + 1] if e == 1) for case in large]
    assert sum(1 for count in unit_pivots if count >= 4) >= 40
    assert sum(1 for case in large if permuted_diagonal_fixup_fires(case)) >= 10


def write_golden_file():
    lines = [json.dumps(case) for case in smith_table()]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    write_golden_file()
