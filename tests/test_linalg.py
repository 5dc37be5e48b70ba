from random import Random

import pytest

from matroidkit.linalg import ExactMatrix, rank_rows_exact, rank_rows_mod_p_dense

PRIMES = (2, 3, 7, 1073741789)


def random_sparse_rows(rng: Random, p: int) -> tuple[list[dict[int, int]], int]:
    """Sparse integer rows with negative entries and entries that vanish mod p."""
    ncols = rng.randint(1, 10)
    rows = []
    for _ in range(rng.randint(0, 14)):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(0, min(6, ncols))):
            row[c] = rng.choice([rng.randint(-9, 9), rng.randint(-9, 9), p, -2 * p])
        rows.append(row)
    return rows, ncols


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_dense_elimination(p):
    rng = Random(p)
    for _ in range(150):
        rows, ncols = random_sparse_rows(rng, p)
        grid = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert rank_rows_exact(rows) == ExactMatrix(grid, cols=ncols).rank()
        assert rank_rows_exact(rows, p=p) == ExactMatrix(grid, field=p, cols=ncols).rank()


def test_field_changes_rank():
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert rank_rows_exact(rows) == 2
    assert rank_rows_exact(rows, p=3) == 2
    assert rank_rows_exact(rows, p=2) == 1


@pytest.mark.parametrize("p", [None, 2, 7])
def test_empty_and_zero_rows(p):
    assert rank_rows_exact([], p=p) == 0
    assert rank_rows_exact([{}, {0: 0, 3: 0}], p=p) == 0
    assert rank_rows_exact([{0: 14, 2: -7}], p=p) == (0 if p == 7 else 1)


def test_mod_p_dense_name_forwards():
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert rank_rows_mod_p_dense(rows, 2, 2) == 1
