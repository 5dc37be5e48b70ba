"""Exact linear algebra over the rationals and over prime fields."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for p < 3,215,031,751."""
    if p < 2:
        return False
    for small in (2, 3, 5, 7):
        if p % small == 0:
            return p == small
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below 2^31, the only moduli the
    exact routines accept."""
    if not (2 <= p < 2**31 and is_prime(p)):
        raise ValueError(f"modulus {p} is not a prime below 2^31")


class ExactMatrix:
    """Dense matrix with exact entries: Fractions, or integers mod a prime.

    field is None for rational arithmetic, or the prime modulus. Ranks are
    computed exactly in either mode by `rank_rows_exact`.
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, data: Sequence[Sequence], field: int | None = None, cols: int | None = None):
        rows = [list(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("all matrix rows must have the same length")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with the data")
        else:
            width = cols or 0
        if field is not None:
            require_prime(field)
            entries = tuple(tuple(int(e) % field for e in r) for r in rows)
        else:
            entries = tuple(tuple(Fraction(e) for e in r) for r in rows)
        self.rows = len(rows)
        self.cols = width
        self.field = field
        self.entries = entries

    def rank(self) -> int:
        """Rank of the matrix: each row becomes a sparse row keyed by column."""
        return rank_rows_exact([dict(enumerate(r)) for r in self.entries], p=self.field)

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def column_label(self, j: int) -> str:
        return "(" + ", ".join(str(e) for e in self.column(j)) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.field, self.entries) == (
            other.rows,
            other.cols,
            other.field,
            other.entries,
        )

    def __repr__(self) -> str:
        f = "QQ" if self.field is None else f"GF({self.field})"
        return f"ExactMatrix({self.rows}x{self.cols} over {f})"


def rank_rows_exact(rows: list[Mapping[int, int | Fraction]], p: int | None = None) -> int:
    """Rank of sparse rows over GF(p), or over the rationals when p is None.

    Each row maps a column index to an integer or Fraction entry; absent and
    zero entries are zero. Over GF(p) the entries must be integers, and p must
    be prime (callers validate it with `require_prime`). This is the library's
    only row reduction: a streaming echelon fed one row at a time through
    `echelon_insert`.
    """
    pivots: dict[int, dict] = {}
    for raw in rows:
        if p is None:
            echelon_insert(pivots, {c: Fraction(v) for c, v in raw.items() if v})
        else:
            echelon_insert(pivots, {c: v % p for c, v in raw.items() if v % p}, p)
    return len(pivots)


def echelon_insert(pivots: dict[int, dict], row: dict, p: int | None = None) -> bool:
    """Reduce row, whose entries are nonzero Fractions or residues mod p,
    against the pivot rows kept so far, one per leading column. Store what is
    left as a new pivot row and return True, or return False when nothing is
    left. The row is consumed."""
    while row:
        c = min(row)
        f = row.pop(c)
        piv = pivots.get(c)
        if piv is None:
            # store the row scaled to a leading 1, leading entry left implicit
            if p is None:
                pivots[c] = {k: v / f for k, v in row.items()}
            else:
                inv = pow(f, -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
            return True
        for k, v in piv.items():
            nv = row.get(k, 0) - f * v
            if p is not None:
                nv %= p
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
    return False


def rank_rows_mod_p_dense(rows: list[Mapping[int, int]], ncols: int, p: int) -> int:
    """Same as rank_rows_exact(rows, p=p); ncols is ignored.

    No library code calls this. The name is kept because the benchmark's
    tracer (bench/spans.py) looks it up when it installs its wrappers.
    """
    return rank_rows_exact(rows, p=p)
