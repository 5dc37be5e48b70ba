"""Exact linear algebra over the rationals and over prime fields."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


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


class ExactMatrix:
    """Dense matrix with exact entries: Fractions, or integers mod a prime.

    field is None for rational arithmetic, or the prime modulus. Ranks and
    reduced row-echelon forms are computed exactly in either mode.
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
            if not (2 <= field < 2**31 and is_prime(field)):
                raise ValueError(f"field modulus {field} is not a prime below 2^31")
            entries = tuple(tuple(int(e) % field for e in r) for r in rows)
        else:
            entries = tuple(tuple(Fraction(e) for e in r) for r in rows)
        self.rows = len(rows)
        self.cols = width
        self.field = field
        self.entries = entries

    def _work(self, columns: Sequence[int] | None) -> list[list]:
        if columns is None:
            return [list(r) for r in self.entries]
        return [[r[c] for c in columns] for r in self.entries]

    def rank(self, columns: Sequence[int] | None = None) -> int:
        """Rank of the matrix, or of the submatrix on the given columns."""
        work = self._work(columns)
        r, _ = _eliminate(work, self.field, reduced=False)
        return r

    def rref(self) -> "ExactMatrix":
        work = self._work(None)
        _eliminate(work, self.field, reduced=True)
        return ExactMatrix(work, field=self.field, cols=self.cols)

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


def _eliminate(work: list[list], p: int | None, reduced: bool) -> tuple[int, list[list]]:
    """In-place Gaussian elimination; returns (rank, work)."""
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        if p is not None:
            inv = pow(lead, -1, p)
            work[r] = [e * inv % p for e in work[r]]
        else:
            work[r] = [e / lead for e in work[r]]
        targets = range(nrows) if reduced else range(r + 1, nrows)
        for i in targets:
            if i == r or work[i][c] == 0:
                continue
            f = work[i][c]
            row, prow = work[i], work[r]
            if p is not None:
                work[i] = [(a - f * b) % p for a, b in zip(row, prow)]
            else:
                work[i] = [a - f * b for a, b in zip(row, prow)]
        r += 1
        if r == nrows:
            break
    return r, work


def rank_rows_exact(rows: Iterable[Mapping[int, int]], p: int | None = None) -> int:
    """Rank of sparse integer rows over GF(p), or over the rationals when p is None.

    Streaming echelon: each incoming row is reduced against the pivot rows kept
    so far, one per leading column, and becomes a new pivot row if anything is
    left. p must be prime; callers validate it.
    """
    pivots: dict[int, dict] = {}
    for raw in rows:
        if p is None:
            row = {c: Fraction(v) for c, v in raw.items() if v}
        else:
            row = {c: v % p for c, v in raw.items() if v % p}
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
                break
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if p is not None:
                    nv %= p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def rank_rows_mod_p_dense(rows: Iterable[Mapping[int, int]], ncols: int, p: int) -> int:
    """Same as rank_rows_exact(rows, p=p); ncols is ignored.

    No library code calls this. The name is kept because the benchmark's
    tracer (bench/spans.py) looks it up when it installs its wrappers.
    """
    return rank_rows_exact(rows, p=p)
