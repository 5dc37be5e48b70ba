from fractions import Fraction
from random import Random

import pytest

from matroidkit.linalg import ExactMatrix, echelon_insert, rank_rows_exact, rank_rows_mod_p_dense
from oracles import brute_matrix_rank

PRIMES = (2, 3, 7, 1073741789)
TOO_BIG_PRIME = 2147483659  # the least prime above 2^31


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
        assert rank_rows_exact(rows) == brute_matrix_rank(grid)
        assert rank_rows_exact(rows, p=p) == brute_matrix_rank(grid, p)


@pytest.mark.parametrize("p", (None, 3))
def test_echelon_insert_reports_independence(p):
    """Each step returns True exactly when the rank of the rows so far grows,
    and leaves the echelon it was given alone when it returns False."""
    rng = Random(7)
    for _ in range(60):
        rows, ncols = random_sparse_rows(rng, 3)
        pivots: dict = {}
        for k, raw in enumerate(rows):
            row = {c: (Fraction(v) if p is None else v % p) for c, v in raw.items()}
            before = dict(pivots)
            grew = echelon_insert(pivots, {c: v for c, v in row.items() if v}, p)
            grid = [[r.get(c, 0) for c in range(ncols)] for r in rows[: k + 1]]
            assert len(pivots) == brute_matrix_rank(grid, p)
            assert grew == (len(pivots) > len(before))
            if not grew:
                assert pivots == before


@pytest.mark.parametrize("p", (None, 2, 3, 7))
def test_matrix_rank_on_columns_matches_oracle(p):
    """Whole-matrix ranks; rows may be zero and entries may vanish mod p."""
    rng = Random(100 + (p or 0))
    pool = [0, 0, 1, -1, 2, -3, 5, 14]
    if p is None:
        pool += [Fraction(2, 3), Fraction(-5, 7)]
    seen = set()
    for _ in range(200):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
        grid = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            grid[rng.randrange(nrows)] = [0] * ncols
        a = ExactMatrix(grid, field=p)
        assert a.rank() == brute_matrix_rank(grid, p)
        if any(not any(row) for row in a.entries):
            seen.add("zero row")
        if p is not None and any(e and e % p == 0 for row in grid for e in row):
            seen.add("vanishing")
    assert seen == {"zero row"} | ({"vanishing"} if p else set())


def test_matrix_rank_depends_on_field():
    grid = [[1, 1, 0], [1, -1, 0]]
    assert ExactMatrix(grid).rank() == 2
    assert ExactMatrix(grid, field=2).rank() == 1
    assert ExactMatrix([[1, 1, 0], [-1, -1, 0]], field=3).rank() == 1
    assert ExactMatrix([], field=3, cols=3).rank() == 0


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


@pytest.mark.parametrize("bad", [4, 1, 0, -7, TOO_BIG_PRIME, 2**31])
def test_bad_modulus_is_refused(bad):
    with pytest.raises(ValueError, match="not a prime below 2"):
        ExactMatrix([[1, 0], [0, 1]], field=bad)


def test_largest_accepted_modulus():
    big = 2**31 - 1  # a Mersenne prime, the largest prime below 2^31
    assert ExactMatrix([[1, 2], [2, 4]], field=big).rank() == 1
