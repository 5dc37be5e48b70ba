"""Exact linear algebra over the rationals and over prime fields."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Mapping, Sequence

from .subsets import Frozen


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below 2^31, the only moduli the
    exact routines accept. Trial division to isqrt(p) takes at most 46,340
    steps there."""
    if not (2 <= p < 2**31 and all(p % d for d in range(2, isqrt(p) + 1))):
        raise ValueError(f"modulus {p} is not a prime below 2^31")


class ExactMatrix(Frozen):
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
        super().__init__(len(rows), width, field, entries)

    def rank(self) -> int:
        """Rank of the matrix: each row becomes a sparse row keyed by column."""
        return rank_rows_exact([dict(enumerate(r)) for r in self.entries], p=self.field)

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def column_label(self, j: int) -> str:
        return "(" + ", ".join(str(e) for e in self.column(j)) + ")"

    def __reduce__(self):  # the constructor takes (data, field, cols)
        return ExactMatrix, (self.entries, self.field, self.cols)

    def __repr__(self) -> str:
        f = "QQ" if self.field is None else f"GF({self.field})"
        return f"ExactMatrix({self.rows}x{self.cols} over {f})"


def rank_rows_exact(rows: list[Mapping[int, int | Fraction]], p: int | None = None) -> int:
    """Rank of sparse rows over GF(p), or over the rationals when p is None.

    Each row maps a column index to an integer or Fraction entry; absent and
    zero entries are zero. Over GF(p) the entries must be integers, and p must
    be prime (callers validate it with `require_prime`). The rows stream one
    at a time through `echelon_insert`, the library's one reduction step,
    which `construct.linear_matroid` and the `linear` guard of
    `cli.cmd_construct` also feed directly.
    """
    pivots: dict[int, dict] = {}
    for raw in rows:
        row = raw.items() if p is None else ((c, v % p) for c, v in raw.items())
        echelon_insert(pivots, {c: v for c, v in row if v}, p)
    return len(pivots)


def echelon_insert(pivots: dict[int, dict], row: dict, p: int | None = None) -> bool:
    """Reduce row, whose entries are nonzero rationals or residues mod p,
    against the pivot rows kept so far, one per leading column. Store what is
    left as a new pivot row and return True, or return False when nothing is
    left. The row is consumed. Over the rationals the step is fraction free
    (Bareiss, Math. Comp. 1968): a row of Fractions is scaled to integers on
    entry, each reduction cross-multiplies two integer rows and divides the
    result by the gcd of its entries. Every pivot row keeps its leading
    entry, which is 1 over GF(p)."""
    if p is None and Fraction in map(type, row.values()):
        d = lcm(*(v.denominator for v in row.values()))
        row = {k: v.numerator * (d // v.denominator) for k, v in row.items()}
    while row:
        c = min(row)
        f = row[c]
        piv = pivots.get(c)
        if piv is None:
            if p is None:
                g = gcd(*row.values())
                pivots[c] = {k: v // g for k, v in row.items()}
            else:
                inv = pow(f, -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
            return True
        if p is None:  # a * row - f * piv, with the leading entries cancelled
            g = gcd(piv[c], f)
            a, f = piv[c] // g, f // g
            row = {k: a * v for k, v in row.items()}
        for k, v in piv.items():
            nv = row.get(k, 0) - f * v
            if p is not None:
                nv %= p
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
        if p is None and (g := gcd(*row.values())) > 1:
            row = {k: v // g for k, v in row.items()}
    return False


def rank_rows_mod_p_dense(rows: list[Mapping[int, int]], ncols: int, p: int) -> int:
    """Same as rank_rows_exact(rows, p=p); ncols is ignored.

    No library code calls this. The name is kept because the benchmark's
    tracer (bench/spans.py) looks it up when it installs its wrappers.
    """
    return rank_rows_exact(rows, p=p)
