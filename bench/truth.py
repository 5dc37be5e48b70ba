"""Ground truth for verifying benchmark answers.

Every matroid in the benchmark is generated from an object whose rank function
is known without matroidkit: a matrix (rank by Gaussian elimination written
here), a graph (rank by union-find), a uniform or named definition, or a
duality/direct-sum/relabeling of those. Expected answers are derived from that
rank function by definition or by a counting theorem, never by calling the
library, so a wrong library answer cannot agree with itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Sequence


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def matrix_rank(columns: Sequence[Sequence[int]], p: int | None) -> int:
    """Rank of a list of column vectors over GF(p), or over Q when p is None."""
    if not columns:
        return 0
    rows = [list(r) for r in zip(*columns)]
    if p is None:
        rows = [[Fraction(x) for x in r] for r in rows]
    else:
        rows = [[x % p for x in r] for r in rows]
    rank, ncols = 0, len(columns)
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                if p is None:
                    q = f / lead
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
                else:
                    q = f * pow(lead, -1, p) % p
                    rows[i] = [(a - q * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def forest_rank(v: int, edges: Sequence[tuple[int, int]], mask: int) -> int:
    parent = list(range(v))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    r = 0
    for e in bits(mask):
        a, b = find(edges[e][0]), find(edges[e][1])
        if a != b:
            parent[a] = b
            r += 1
    return r


class Truth:
    """A matroid known through an independent rank function on bitmasks.

    `n`, `rank` and `basis_masks` match the attribute names that the
    brute-force oracles in tests/oracles.py read, so a Truth can be handed to
    them directly.
    """

    TABLE_LIMIT = 15

    def __init__(self, n: int, rank_fn: Callable[[int], int]):
        self.n = n
        self.full = (1 << n) - 1
        self._rank_fn = rank_fn
        self._memo: dict[int, int] = {}
        self._table: list[int] | None = None
        self._bases: tuple[int, ...] | None = None
        self.rank = self.rank_of(self.full)

    def rank_of(self, mask: int) -> int:
        if self._table is not None:
            return self._table[mask]
        r = self._memo.get(mask)
        if r is None:
            r = self._memo[mask] = self._rank_fn(mask)
        return r

    def table(self) -> list[int]:
        """Rank of every subset; only for ground sets of at most TABLE_LIMIT."""
        if self._table is None:
            if self.n > self.TABLE_LIMIT:
                raise ValueError(f"no rank table for n={self.n}")
            self._table = [self.rank_of(m) for m in range(1 << self.n)]
        return self._table

    @property
    def basis_masks(self) -> tuple[int, ...]:
        if self._bases is None:
            r = self.rank
            self._bases = tuple(
                sorted(
                    m
                    for m in (mask_of(c) for c in combinations(range(self.n), r))
                    if self.rank_of(m) == r
                )
            )
        return self._bases

    # -- answers derived from the rank function -------------------------------

    def closure(self, mask: int) -> int:
        r = self.rank_of(mask)
        out = mask
        for e in range(self.n):
            if not mask >> e & 1 and self.rank_of(mask | 1 << e) == r:
                out |= 1 << e
        return out

    def is_circuit(self, mask: int) -> bool:
        k = mask.bit_count()
        return k > 0 and self.rank_of(mask) == k - 1 and all(
            self.rank_of(mask ^ (1 << e)) == k - 1 for e in bits(mask)
        )

    def is_flat(self, mask: int) -> bool:
        return self.closure(mask) == mask

    def circuits(self) -> set[int]:
        t = self.table()
        return {
            m
            for m in range(1, 1 << self.n)
            if t[m] == m.bit_count() - 1
            and all(t[m ^ (1 << e)] == t[m] for e in bits(m))
        }

    def flats(self) -> list[set[int]]:
        t = self.table()
        levels: list[set[int]] = [set() for _ in range(self.rank + 1)]
        for m in range(1 << self.n):
            if all(t[m | 1 << e] > t[m] for e in range(self.n) if not m >> e & 1):
                levels[t[m]].add(m)
        return levels

    def independents(self, k: int) -> set[int]:
        return {
            m
            for m in (mask_of(c) for c in combinations(range(self.n), k))
            if self.rank_of(m) == k
        }

    def components(self) -> list[int]:
        """Connected components: classes of 'some circuit contains both'."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for c in self.circuits():
            es = bits(c)
            for a in es[1:]:
                ra, rb = find(a), find(es[0])
                if ra != rb:
                    parent[ra] = rb
        groups: dict[int, int] = {}
        for e in range(self.n):
            groups[find(e)] = groups.get(find(e), 0) | 1 << e
        return sorted(groups.values(), key=lambda m: m & -m)

    def tutte_eval(self, x: int, y: int) -> int:
        """T(x, y) as the rank-generating function over all subsets."""
        t, r = self.table(), self.rank
        return sum(
            (x - 1) ** (r - t[m]) * (y - 1) ** (m.bit_count() - t[m])
            for m in range(1 << self.n)
        )

    def rank_generating(self) -> dict[tuple[int, int], int]:
        """Coefficients of sum over S of u^(r - r(S)) v^(|S| - r(S)); the Tutte
        polynomial is this at u = x - 1, v = y - 1, so equal Tutte polynomials
        mean equal dictionaries."""
        t, r = self.table(), self.rank
        out: dict[tuple[int, int], int] = {}
        for m in range(1 << self.n):
            key = (r - t[m], m.bit_count() - t[m])
            out[key] = out.get(key, 0) + 1
        return out

    def greedy_order(self, weights) -> list[int]:
        """Max-weight basis by the Rado-Edmonds scan, in decreasing weight;
        with distinct weights it is the only optimal basis."""
        order, chosen = [], 0
        for e in sorted(range(self.n), key=lambda e: (-weights[e], e)):
            if self.rank_of(chosen | 1 << e) > len(order):
                order.append(e)
                chosen |= 1 << e
        return order

    def is_matroid(self) -> bool:
        """Whether the rank function is submodular on every S, S+e, S+f, S+e+f.

        An independence system is a matroid exactly when its rank function is
        submodular, and local submodularity implies the global inequality.
        """
        t = self.table()
        for m in range(1 << self.n):
            out = [e for e in range(self.n) if not m >> e & 1]
            for i, e in enumerate(out):
                for f in out[i + 1 :]:
                    if t[m | 1 << e] + t[m | 1 << f] < t[m | 1 << e | 1 << f] + t[m]:
                        return False
        return True

    def minor_bases(self, contract: int, delete: int) -> set[int]:
        """Bases of (M / contract) \\ delete, re-indexed densely in element order."""
        keep = [e for e in range(self.n) if not (contract | delete) >> e & 1]
        rc = self.rank_of(contract)
        r = self.rank_of(mask_of(keep) | contract) - rc
        out = set()
        for combo in combinations(range(len(keep)), r):
            orig = mask_of(keep[i] for i in combo)
            if self.rank_of(orig | contract) - rc == r:
                out.add(mask_of(combo))
        return out

    def fy_hilbert(self) -> list[int]:
        """Hilbert function of the graded flat algebra of a loopless matroid by
        the Feichtner-Yuzvinsky monomial basis: chains of nonempty flats
        F1 < ... < Fk with exponents 1 <= a_i <= rk F_i - rk F_(i-1) - 1."""
        levels = self.flats()
        if 0 not in levels[0]:
            raise ValueError("matroid has loops")
        flats = [(k, f) for k, level in enumerate(levels) for f in level]
        top = self.rank
        ways: dict[int, list[int]] = {0: [1] + [0] * top}
        for k, f in flats:
            if f == 0:
                continue
            acc = [0] * (top + 1)
            for kg, g in flats:
                if kg >= k or g & ~f or g not in ways:
                    continue
                for d, cnt in enumerate(ways[g]):
                    if cnt:
                        for a in range(1, k - kg):
                            if d + a <= top:
                                acc[d + a] += cnt
            ways[f] = acc
        return [sum(w[d] for w in ways.values()) for d in range(top)]


def same_family(got, want) -> bool:
    """`got` lists exactly the members of `want`, each once."""
    want = set(want)
    return len(got) == len(set(got)) == len(want) and set(got) == want


# -- constructors ---------------------------------------------------------------


def matrix_truth(rows: Sequence[Sequence[int]], p: int | None) -> Truth:
    cols = [tuple(r[j] for r in rows) for j in range(len(rows[0]))]
    return Truth(len(cols), lambda m: matrix_rank([cols[j] for j in bits(m)], p))


def graph_truth(v: int, edges: Sequence[tuple[int, int]]) -> Truth:
    return Truth(len(edges), lambda m: forest_rank(v, edges, m))


def uniform_truth(r: int, n: int) -> Truth:
    return Truth(n, lambda m: min(m.bit_count(), r))


def bases_truth(n: int, bases: Sequence[int]) -> Truth:
    """Independent sets are the subsets of listed bases (the definition)."""
    indep = set()
    frontier = set(bases)
    while frontier:
        indep |= frontier
        frontier = {m ^ (1 << e) for m in frontier for e in bits(m)} - indep
    return Truth(n, lambda m: max((s.bit_count() for s in _submasks(m) if s in indep)))


def _submasks(m: int):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def dual_truth(t: Truth) -> Truth:
    return Truth(t.n, lambda m: m.bit_count() + t.rank_of(t.full ^ m) - t.rank)


def sum_truth(parts: Sequence[Truth]) -> Truth:
    offsets, n = [], 0
    for p in parts:
        offsets.append(n)
        n += p.n
    return Truth(
        n,
        lambda m: sum(p.rank_of(m >> o & p.full) for p, o in zip(parts, offsets)),
    )


def relabel_truth(t: Truth, perm: Sequence[int]) -> Truth:
    """Element i of t becomes element perm[i]."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return Truth(t.n, lambda m: t.rank_of(mask_of(inv[j] for j in bits(m))))


# -- counting theorems -------------------------------------------------------------


def cayley(n: int) -> int:
    """Spanning trees of K_n."""
    return n ** (n - 2)


def complete_graph_cycles(n: int) -> int:
    """Simple cycles of K_n: sum over k of C(n, k) (k - 1)! / 2."""
    total = 0
    for k in range(3, n + 1):
        f = 1
        for i in range(2, k):
            f *= i
        total += comb(n, k) * f // 2
    return total


def spanning_tree_count(v: int, edges: Sequence[tuple[int, int]]) -> int:
    """Kirchhoff: spanning forests of a connected graph = any Laplacian cofactor."""
    lap = [[Fraction(0)] * v for _ in range(v)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = v - 1
    for c in range(size):
        piv = next((i for i in range(c, size) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, size):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return int(det)


# Fano plane as the GF(2) column matroid of the seven nonzero vectors of
# GF(2)^3, ordered so that its seven lines are the library's nonbases.
FANO_ROWS = ((1, 0, 1, 0, 1, 0, 1), (0, 1, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1))

# The Vamos matroid on four pairs {0,1} {2,3} {4,5} {6,7}: every 4-set is a
# basis except five of the six unions of two pairs; {4,5,6,7} stays a basis.
VAMOS_NONBASES = (0b00001111, 0b00110011, 0b11000011, 0b00111100, 0b11001100)


def fano_truth() -> Truth:
    return matrix_truth(FANO_ROWS, 2)


def vamos_truth() -> Truth:
    return bases_truth(
        8,
        [m for m in (mask_of(c) for c in combinations(range(8), 4)) if m not in VAMOS_NONBASES],
    )
