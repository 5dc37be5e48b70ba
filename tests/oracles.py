"""Independent brute-force oracles and random instance generators for tests.

Everything here recomputes from definitions (powersets, exhaustive search,
full eliminations) so the library's output-sensitive algorithms are checked
against a second, slower path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from random import Random

from matroidkit import (
    ExactMatrix,
    Graph,
    Matroid,
    chow_presentation,
    direct_sum,
    graph_from_edges,
    graphic_matroid,
    linear_matroid,
    uniform_matroid,
)
from matroidkit.subsets import iter_bits


# -- set-system oracles ----------------------------------------------------------


def is_independent(m: Matroid, mask: int) -> bool:
    """Independent means: contained in some basis."""
    return any(mask & ~b == 0 for b in m.basis_masks)


def brute_rank(m: Matroid, mask: int) -> int:
    best = 0
    elems = list(iter_bits(mask))
    for k in range(len(elems), -1, -1):
        for sub in combinations(elems, k):
            smask = 0
            for e in sub:
                smask |= 1 << e
            if is_independent(m, smask):
                return k
    return best


def brute_circuits(m: Matroid) -> set[int]:
    """Minimal dependent subsets by scanning the whole powerset."""
    dependent = [
        mask for mask in range(1, 1 << m.n) if not is_independent(m, mask)
    ]
    dep_set = set(dependent)
    out = set()
    for mask in dependent:
        if not any(
            (mask ^ (1 << e)) in dep_set for e in iter_bits(mask)
        ):
            out.add(mask)
    return out


def brute_closure(m: Matroid, mask: int) -> int:
    r = brute_rank(m, mask)
    closed = mask
    for x in range(m.n):
        if not mask >> x & 1 and brute_rank(m, mask | 1 << x) == r:
            closed |= 1 << x
    return closed


def brute_flats_by_rank(m: Matroid) -> list[set[int]]:
    """Distinct closures of all subsets, grouped by rank."""
    levels: list[set[int]] = [set() for _ in range(m.rank + 1)]
    for mask in range(1 << m.n):
        cl = brute_closure(m, mask)
        levels[brute_rank(m, cl)].add(cl)
    return levels


# -- graphs ----------------------------------------------------------------------


def brute_cycle_count(g: Graph) -> int:
    """Edge subsets that form a single cycle: connected, every vertex degree 2."""
    m = len(g.edges)
    count = 0
    for mask in range(1, 1 << m):
        deg = [0] * g.v
        verts = set()
        for i in iter_bits(mask):
            u, w = g.edges[i]
            deg[u] += 1
            deg[w] += 1
            verts.update((u, w))
        if any(deg[v] != 2 for v in verts):
            continue
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        adj: dict[int, list[int]] = {v: [] for v in verts}
        for i in iter_bits(mask):
            u, w = g.edges[i]
            adj[u].append(w)
            adj[w].append(u)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen == verts:
            count += 1
    return count


def brute_coloring_count(g: Graph, colors: int) -> int:
    count = 0
    for assignment in range(colors**g.v) if g.v else range(1):
        cols = []
        a = assignment
        for _ in range(g.v):
            cols.append(a % colors)
            a //= colors
        if all(cols[u] != cols[w] for u, w in g.edges):
            count += 1
    return count


# -- search ----------------------------------------------------------------------


def brute_isomorphic(a: Matroid, b: Matroid) -> bool:
    if a.n != b.n or len(a.basis_masks) != len(b.basis_masks):
        return False
    target = set(b.basis_masks)
    for perm in permutations(range(a.n)):
        mapped = set()
        for mask in a.basis_masks:
            out = 0
            for e in iter_bits(mask):
                out |= 1 << perm[e]
            mapped.add(out)
        if mapped == target:
            return True
    return False


# -- optimization ------------------------------------------------------------------


def brute_max_basis_weight(m: Matroid, weights) -> object:
    return max(sum(weights[e] for e in iter_bits(b)) for b in m.basis_masks)


# -- tutte -------------------------------------------------------------------------


def tutte_by_activities(m: Matroid):
    """Tutte polynomial as the basis-activity generating function.

    An element of a basis is internally active when it is the minimum of its
    fundamental cocircuit; an element outside is externally active when it is
    the minimum of its fundamental circuit.
    """
    from matroidkit import BivarPoly

    base_set = set(m.basis_masks)
    terms: dict[tuple[int, int], int] = {}
    for b in m.basis_masks:
        internal = 0
        for e in iter_bits(b):
            swaps = [
                f
                for f in range(m.n)
                if not b >> f & 1 and (b ^ (1 << e)) | (1 << f) in base_set
            ]
            if all(f > e for f in swaps):
                internal += 1
        external = 0
        for f in range(m.n):
            if b >> f & 1:
                continue
            swaps = [
                e for e in iter_bits(b) if (b ^ (1 << e)) | (1 << f) in base_set
            ]
            if all(e > f for e in swaps):
                external += 1
        key = (internal, external)
        terms[key] = terms.get(key, 0) + 1
    return BivarPoly(terms)


# -- algebra -----------------------------------------------------------------------


def naive_chow_hilbert(m: Matroid, degree: int) -> int:
    """Hilbert value by full elimination over every monomial, rationally.

    Rows are all monomial multiples of the quadric generators plus all
    monomial multiples of the linear generators, with no chain shortcuts.
    """
    pres = chow_presentation(m)
    nvars = len(pres.flats)
    if degree == 0:
        return 1
    if nvars == 0:
        return 0

    def monos(t: int) -> list[tuple[int, ...]]:
        return list(combinations_with_replacement(range(nvars), t))

    columns = {mono: i for i, mono in enumerate(monos(degree))}
    rows = []
    if degree >= 2:
        for a, b in pres.quadric_gens:
            for mono in monos(degree - 2):
                row = [0] * len(columns)
                row[columns[tuple(sorted(mono + (a, b)))]] = 1
                rows.append(row)
    for gen in pres.linear_gens:
        for mono in monos(degree - 1):
            row = [0] * len(columns)
            for var, coeff in gen:
                row[columns[tuple(sorted(mono + (var,)))]] += coeff
            rows.append(row)
    return len(columns) - ExactMatrix(rows, cols=len(columns)).rank()


def fy_chow_hilbert(m: Matroid) -> list[int]:
    """Hilbert function of the graded flat algebra of a loopless matroid, in
    degrees 0 .. rank - 1, by counting the Feichtner-Yuzvinsky monomial basis.

    The basis monomials are x_F1^a1 ... x_Fk^ak over chains of flats
    empty < F1 < ... < Fk with 1 <= a_i <= rk F_i - rk F_(i-1) - 1
    (Feichtner-Yuzvinsky, Invent. Math. 2004). ending[F][d] counts the chains
    ending at F whose exponents sum to d; flats come from the powerset oracle.
    """
    levels = brute_flats_by_rank(m)
    if levels[0] != {0}:
        raise ValueError("the graded flat algebra requires a loopless matroid")
    top = m.rank
    ending: dict[int, list[int]] = {0: [1] + [0] * top}
    ranked = [(k, f) for k, level in enumerate(levels) for f in level]
    for k, f in ranked:
        if f == 0:
            continue
        counts = [0] * (top + 1)
        for j, g in ranked:
            if j >= k or g & ~f:
                continue
            for d, c in enumerate(ending[g]):
                for a in range(1, min(k - j - 1, top - d) + 1):
                    counts[d + a] += c
        ending[f] = counts
    return [sum(c[d] for c in ending.values()) for d in range(top)]


# -- random instances ----------------------------------------------------------------


def random_linear_matroid(rng: Random, max_n: int = 8, fields=(2, 3)) -> Matroid:
    p = rng.choice(fields)
    n = rng.randint(2, max_n)
    nrows = rng.randint(1, min(4, n))
    data = [[rng.randrange(p) for _ in range(n)] for _ in range(nrows)]
    return linear_matroid(ExactMatrix(data, field=p))


def random_graph(rng: Random, max_v: int = 5) -> Graph:
    v = rng.randint(2, max_v)
    edges = [e for e in combinations(range(v), 2) if rng.random() < 0.6]
    return graph_from_edges(v, edges)


def random_matroid(rng: Random, max_n: int = 8) -> Matroid:
    kind = rng.randrange(4)
    if kind == 0:
        return random_linear_matroid(rng, max_n)
    if kind == 1:
        n = rng.randint(1, max_n)
        return uniform_matroid(rng.randint(0, n), n)
    if kind == 2:
        g = random_graph(rng)
        if len(g.edges) <= max_n:
            return graphic_matroid(g)
        return random_linear_matroid(rng, max_n)
    left = random_linear_matroid(rng, max(2, max_n // 2))
    right = uniform_matroid(1, rng.randint(1, max(1, max_n - left.n)))
    if left.n + right.n <= max_n:
        return direct_sum(left, right)
    return left
