"""Seeded input generators. Everything here is plain Python data derived from a
random.Random, so one seed always yields the same matrices, graphs and labels."""

from __future__ import annotations

from itertools import combinations
from random import Random

from truth import Truth, bits, matrix_rank, matrix_truth

# Representations used to plant a known minor inside a random host matrix.
K4_EDGES = tuple(combinations(range(4), 2))
MK4_GF2 = ((1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1))
# F7* = [A^T | I_4] where the Fano plane is [I_3 | A] over GF(2).
F7STAR_GF2 = (
    (1, 1, 0, 1, 0, 0, 0),
    (1, 1, 1, 0, 1, 0, 0),
    (0, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 0, 0, 0, 1),
)
U24_GF3 = ((1, 0, 1, 1), (0, 1, 1, 2))


def _columns(rng: Random, r: int, n: int, p: int | None, cols: list, simple: bool) -> list:
    """Extend cols with random nonzero columns; with `simple` over GF(p), no
    column is a multiple of another, so the matroid has no parallel pairs."""
    points = {_point(c, p) for c in cols}
    while len(cols) < n:
        c = [rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(r)]
        if not any(c) or (simple and p and _point(c, p) in points):
            continue
        points.add(_point(c, p))
        cols.append(c)
    return cols


def _point(col, p):
    if not p:
        return None
    inv = pow(next(x for x in col if x % p), -1, p)
    return tuple(x * inv % p for x in col)


def random_matrix(rng: Random, r: int, n: int, p: int | None, simple: bool = True) -> list[list[int]]:
    """r x n matrix of full row rank with no zero column, over GF(p) or over Q
    (entries in [-3, 3]) when p is None. Simple matroids of one shape have
    nearly the same number of bases, which keeps the work of a seeded input
    close to that of any other seed."""
    while True:
        cols = _columns(rng, r, n, p, [], simple)
        if matrix_rank(cols, p) == r:
            return [[c[i] for c in cols] for i in range(r)]


def planted_matrix(rng: Random, pattern, r: int, n: int, p: int) -> list[list[int]]:
    """Random r x n matrix over GF(p) whose first columns, before a random row
    mixing and column shuffle, are the given pattern representation; so the
    pattern's matroid is a restriction of the result."""
    while True:
        cols = _columns(rng, r, n, p, [list(c) + [0] * (r - len(pattern)) for c in zip(*pattern)], True)
        if matrix_rank(cols, p) != r:
            continue
        mix = random_matrix(rng, r, r, p)
        cols = [[sum(mix[i][k] * c[k] for k in range(r)) % p for i in range(r)] for c in cols]
        rng.shuffle(cols)
        return [[c[i] for c in cols] for i in range(r)]


def permutation(rng: Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(masks, perm) -> list[list[int]]:
    """Index lists of the bases after sending element i to perm[i]."""
    return [sorted(perm[i] for i in bits(m)) for m in masks]


def random_connected_graph(rng: Random, v: int, m: int) -> list[tuple[int, int]]:
    """Simple connected graph: a random spanning tree plus random extra edges."""
    order = permutation(rng, v)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, v)}
    rest = [e for e in combinations(range(v), 2) if e not in edges]
    rng.shuffle(rest)
    edges |= set(rest[: m - len(edges)])
    out = sorted(edges)
    rng.shuffle(out)
    return out


def cactus(rng: Random, cycle_lengths, bridges: int):
    """Connected graph made of edge-disjoint cycles and bridges glued at
    vertices. Its cycles are exactly the given ones, so its graphic matroid
    has prod(lengths) bases, len(lengths) circuits, and bonds made of one
    bridge or of two edges of one cycle.

    Returns (v, edges, cycle edge masks, bridge edge mask).
    """
    v = 1
    pieces = [("cycle", k) for k in cycle_lengths] + [("bridge", 1)] * bridges
    rng.shuffle(pieces)
    raw = []
    for kind, k in pieces:
        at = rng.randrange(v)
        if kind == "bridge":
            raw.append(((at, v), None))
            v += 1
            continue
        ring = [at] + list(range(v, v + k - 1))
        v += k - 1
        tag = len(raw)
        for i in range(k):
            raw.append(((ring[i], ring[(i + 1) % k]), tag))
    order = permutation(rng, len(raw))
    edges = [None] * len(raw)
    cycles: dict[int, int] = {}
    bridge_mask = 0
    for old, (e, tag) in enumerate(raw):
        new = order[old]
        edges[new] = tuple(sorted(e))
        if tag is None:
            bridge_mask |= 1 << new
        else:
            cycles[tag] = cycles.get(tag, 0) | 1 << new
    return v, edges, sorted(cycles.values()), bridge_mask


def noniso_pairs(rng: Random, count: int, r: int, n: int, p: int, tries: int = 200):
    """Pairs of random GF(p) column matroids with equal n, rank and number of
    bases but different Tutte polynomials, hence not isomorphic."""
    groups: dict[int, list[tuple[list[list[int]], Truth]]] = {}
    pairs = []
    for _ in range(tries):
        rows = random_matrix(rng, r, n, p, simple=False)
        t = matrix_truth(rows, p)
        nb = len(t.basis_masks)
        for other_rows, other in groups.get(nb, []):
            if other.rank_generating() != t.rank_generating():
                pairs.append((other_rows, rows))
                groups[nb].remove((other_rows, other))
                break
        else:
            groups.setdefault(nb, []).append((rows, t))
            continue
        if len(pairs) == count:
            return pairs
    raise RuntimeError("could not find enough non-isomorphic pairs")


def random_subsets(rng: Random, n: int, count: int) -> list[list[int]]:
    return [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(count)]


def indicator(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> i & 1 for i in range(n))

