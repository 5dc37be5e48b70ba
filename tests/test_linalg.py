from fractions import Fraction
from math import gcd
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


@pytest.mark.parametrize("p", (None, 2, 3, 7))
def test_echelon_insert_reports_independence(p):
    """Each step returns True exactly when the rank of the rows so far grows,
    and leaves the echelon it was given alone when it returns False. Every
    pivot row holds its leading column, with the entry 1 over GF(p)."""
    rng = Random(7)
    for _ in range(60):
        rows, ncols = random_sparse_rows(rng, p or 3)
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
        for c, piv in pivots.items():
            assert min(piv) == c and 0 not in piv.values()
            if p is not None:
                assert piv[c] == 1 and all(0 < v < p for v in piv.values())


@pytest.mark.parametrize("kind", ("integer", "fraction"))
def test_fraction_free_echelon_matches_oracle(kind):
    """Over the rationals, on integer rows or on Fraction rows, with negative
    and large numerators, a zero column and rows that combine earlier ones.
    Each step grows the echelon exactly when the rank grows, and every pivot
    row is an integer row with gcd 1 that keeps its leading entry."""
    rng = Random(11)
    pool = [1, -1, 2, -3, 7, 10**12 + 39, -(10**15)]
    seen = set()
    for _ in range(200):
        ncols = rng.randint(1, 8)
        zero = rng.randrange(ncols)
        rows: list[dict] = []
        for _ in range(rng.randint(1, 7)):
            if len(rows) >= 2 and rng.random() < 0.3:
                a, b = rng.sample(rows, 2)
                x, y = Fraction(rng.choice(pool), rng.choice((1, 3))), rng.choice(pool)
                row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in range(ncols)}
                row = {c: v if kind == "fraction" else int(v * 3) for c, v in row.items()}
            else:
                cols = rng.sample(range(ncols), rng.randint(0, ncols))
                row = {c: rng.choice(pool) for c in cols if c != zero}
                if kind == "fraction":
                    row = {c: Fraction(v, rng.choice((1, 4, -9, 10**9 + 7))) for c, v in row.items()}
            rows.append({c: v for c, v in row.items() if v})
        pivots: dict = {}
        for k, row in enumerate(rows):
            before = dict(pivots)
            grew = echelon_insert(pivots, dict(row))
            grid = [[r.get(c, 0) for c in range(ncols)] for r in rows[: k + 1]]
            assert len(pivots) == brute_matrix_rank(grid)
            assert grew == (len(pivots) > len(before))
            if not grew:
                assert pivots == before
                seen.add("dependent row" if row else "zero row")
        for c, piv in pivots.items():
            assert min(piv) == c and zero not in piv
            assert all(type(v) is int for v in piv.values()) and gcd(*piv.values()) == 1
        if any(abs(v) > 10**20 for piv in pivots.values() for v in piv.values()):
            seen.add("large entries")
        assert rank_rows_exact(rows) == len(pivots)
    assert seen == {"dependent row", "zero row", "large entries"}


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
    assert ExactMatrix(grid) == ExactMatrix([[1, 1, 0], [1, -1, 0]])
    assert ExactMatrix(grid) != ExactMatrix(grid, field=2) and ExactMatrix(grid) != grid
    assert repr(ExactMatrix(grid)) == "ExactMatrix(2x3 over QQ)"
    assert repr(ExactMatrix(grid, field=2)) == "ExactMatrix(2x3 over GF(2))"


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


@pytest.mark.parametrize(
    "rows, cols, message",
    [([[1, 2], [3]], None, "same length"), ([[1, 2]], 3, "disagrees")],
    ids=["ragged", "cols"],
)
def test_matrix_shape_errors(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        ExactMatrix(rows, cols=cols)


# 561 = 3 * 11 * 17, the least Carmichael number: it passes the Fermat test
# in every base prime to it.
@pytest.mark.parametrize("bad", [4, 1, 0, -7, 561, TOO_BIG_PRIME, 2**31])
def test_bad_modulus_is_refused(bad):
    with pytest.raises(ValueError, match="not a prime below 2"):
        ExactMatrix([[1, 0], [0, 1]], field=bad)


def test_largest_accepted_modulus():
    big = 2**31 - 1  # a Mersenne prime, the largest prime below 2^31
    assert ExactMatrix([[1, 2], [2, 4]], field=big).rank() == 1
