"""Independent brute-force oracles and random instance generators for tests.

Everything here recomputes from definitions (powersets, exhaustive search,
full eliminations) so the library's output-sensitive algorithms are checked
against a second, slower path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
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
from matroidkit.linalg import rank_rows_exact
from matroidkit.subsets import iter_bits


# -- set-system oracles ----------------------------------------------------------


def canon_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The order of circuits and hyperplanes: cardinality, then element tuple."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


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


def brute_is_valid(m: Matroid) -> bool:
    """Matroid test through the rank function r(S) = max |B & S| over the
    powerset. That r is monotone and grows by at most one per element, so it
    is a matroid rank function exactly when it is locally submodular: no S,
    e, f with r(S) = r(S + e) = r(S + f) < r(S + e + f). Its bases are then
    exactly the given ones."""
    r = [max((b & s).bit_count() for b in m.basis_masks) for s in range(1 << m.n)]
    for s in range(1 << m.n):
        for e, f in combinations([x for x in range(m.n) if not s >> x & 1], 2):
            se, sf = s | 1 << e, s | 1 << f
            if r[s] == r[se] == r[sf] < r[se | sf]:
                return False
    return True


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


def circuit_family(family) -> set[int] | None:
    """The inclusion-minimal members of a family of nonempty masks when they
    satisfy circuit elimination, so are a matroid's circuits (Oxley, §1.1):
    for distinct C1, C2 and e in both, a member lies in C1 + C2 - e. None
    otherwise."""
    minimal = {c for c in family if not any(d != c and d & c == d for d in family)}
    for c1, c2 in combinations(minimal, 2):
        for e in iter_bits(c1 & c2):
            union = (c1 | c2) & ~(1 << e)
            if not any(c & ~union == 0 for c in minimal):
                return None
    return minimal


def pair_fundamental_circuits(masks, full: int) -> set[int]:
    """The fundamental circuits C(e, b) = e + {f in b : b - f + e in masks}
    read off the definition: one lookup per member b, element e outside b
    and element f of b."""
    base_set, found = set(masks), set()
    for b in masks:
        for e in iter_bits(full ^ b):
            swap, out, rest = b | 1 << e, 1 << e, b
            while rest:
                low = rest & -rest
                if swap ^ low in base_set:
                    out |= low
                rest ^= low
            found.add(out)
    return found


def brute_components(m: Matroid) -> list[int]:
    """Connected components as masks, in order of their minimum element: the
    classes of the relation "equal, or together in a powerset circuit", closed
    transitively. Loops and coloops stay singletons."""
    circuits = brute_circuits(m)
    parts: list[int] = []
    for e in range(m.n):
        if any(p >> e & 1 for p in parts):
            continue
        part, grown = 1 << e, True
        while grown:
            grown = False
            for c in circuits:
                if c & part and c & ~part:
                    part, grown = part | c, True
        parts.append(part)
    return parts


def elimination_polytope_dim(m: Matroid) -> int:
    """Affine dimension of the basis polytope: the rational rank of the
    differences of the vertices against the first, as sparse +1/-1 rows."""
    first = m.basis_masks[0]
    diffs = []
    for b in m.basis_masks[1:]:
        row = dict.fromkeys(iter_bits(b & ~first), 1)
        row.update(dict.fromkeys(iter_bits(first & ~b), -1))
        diffs.append(row)
    return rank_rows_exact(diffs)


def brute_closure(m: Matroid, mask: int) -> int:
    r = brute_rank(m, mask)
    closed = mask
    for x in range(m.n):
        if not mask >> x & 1 and brute_rank(m, mask | 1 << x) == r:
            closed |= 1 << x
    return closed


def brute_flats_by_rank(m: Matroid) -> list[set[int]]:
    """Distinct closures of all subsets, grouped by rank. Each powerset
    `brute_rank` is computed once per mask and reused by every closure."""
    ranks: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask not in ranks:
            ranks[mask] = brute_rank(m, mask)
        return ranks[mask]

    levels: list[set[int]] = [set() for _ in range(m.rank + 1)]
    for mask in range(1 << m.n):
        r = rank(mask)
        cl = mask
        for x in range(m.n):
            if not mask >> x & 1 and rank(mask | 1 << x) == r:
                cl |= 1 << x
        levels[rank(cl)].add(cl)
    return levels


def meeting_bases(m: Matroid, mask: int) -> list[int]:
    """The bases B with |B & S| = r(S), by one sweep of the basis list: the
    bases of M / S are B - S over these."""
    best = max((b & mask).bit_count() for b in m.basis_masks)
    return [b for b in m.basis_masks if (b & mask).bit_count() == best]


def sweep_closure(m: Matroid, mask: int) -> int:
    """cl(S) = S | (E - OR of `meeting_bases(S)`): an element x outside S
    raises the rank exactly when a basis meeting S in r(S) elements holds x
    (Oxley, §1.4)."""
    union = 0
    for b in meeting_bases(m, mask):
        union |= b
    return mask | ((1 << m.n) - 1) & ~union


def reference_columns(m: Matroid) -> list[int]:
    """col[e], the bitmask over basis positions of the bases holding e, one
    bit at a time."""
    col = [0] * m.n
    for i, b in enumerate(m.basis_masks):
        for e in iter_bits(b):
            col[e] |= 1 << i
    return col


def closure_flats_by_level(m: Matroid) -> list[list[int]]:
    """Flats by rank as masks in element order, each level the closures
    cl(F + x) over every flat F of the level below and every x outside F:
    one `sweep_closure` per pair, with no cover rule and no skipping."""
    full = (1 << m.n) - 1
    current = {sweep_closure(m, 0)}
    levels = [current]
    for _ in range(m.rank):
        current = {sweep_closure(m, f | 1 << x) for f in current for x in iter_bits(full & ~f)}
        levels.append(current)
    return [sorted(level, key=lambda f: tuple(iter_bits(f))) for level in levels]


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


def _count_components(v: int, edges) -> int:
    """Connected components of the graph on v vertices, by depth-first search."""
    adj: list[list[int]] = [[] for _ in range(v)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen: set[int] = set()
    count = 0
    for s in range(v):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def brute_graphic_bases(g: Graph) -> set[int]:
    """Spanning forests as edge masks: the (v - c)-edge subsets F whose
    subgraph (V, F) still has the c components of g, which for v - c edges
    holds exactly when F has no cycle."""
    c = _count_components(g.v, g.edges)
    return {
        sum(1 << i for i in combo)
        for combo in combinations(range(len(g.edges)), g.v - c)
        if _count_components(g.v, [g.edges[i] for i in combo]) == c
    }


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


def apply_permutation(mask: int, perm: tuple[int, ...]) -> int:
    """The image of a subset under the map sending element e to perm[e]."""
    out = 0
    for e in iter_bits(mask):
        out |= 1 << perm[e]
    return out


def brute_isomorphic(a: Matroid, b: Matroid) -> bool:
    if a.n != b.n or len(a.basis_masks) != len(b.basis_masks):
        return False
    target = set(b.basis_masks)
    for perm in permutations(range(a.n)):
        # A permutation maps distinct bases to distinct sets, so with equal
        # basis counts it is an isomorphism once every image is a basis.
        for mask in a.basis_masks:
            out = 0
            for e in iter_bits(mask):
                out |= 1 << perm[e]
            if out not in target:
                break
        else:
            return True
    return False


def cyclic_sts13() -> set[frozenset[int]]:
    """The Steiner triple system on Z_13 with base blocks {0, 1, 4} and
    {0, 2, 7}: their differences +-1, +-3, +-4 and +-2, +-5, +-7 cover every
    nonzero residue once, so each pair lies in exactly one of the 26 triples."""
    blocks = ((0, 1, 4), (0, 2, 7))
    return {frozenset((x + d) % 13 for x in block) for block in blocks for d in range(13)}


def projective_lines(k: int) -> set[frozenset[int]]:
    """The lines of PG(k - 1, 2): its points are the nonzero vectors of
    GF(2)^k, point v numbered v - 1, and each line is {a, b, a + b}. They form
    a Steiner triple system on 2^k - 1 points: Fano's 7 lines at k = 3, and
    35 lines on 15 points at k = 4."""
    points = range(1, 1 << k)
    return {frozenset((a - 1, b - 1, (a ^ b) - 1)) for a in points for b in points if a < b < a ^ b}


def pasch_configurations(triples: set[frozenset[int]]) -> list[tuple[frozenset[int], ...]]:
    """Four triples on six points, each point in exactly two of them."""
    out = []
    for quad in combinations(sorted(triples, key=sorted), 4):
        points = frozenset().union(*quad)
        if len(points) == 6 and all(sum(p in t for t in quad) == 2 for p in points):
            out.append(quad)
    return out


def pasch_trade(triples: set[frozenset[int]]) -> set[frozenset[int]]:
    """Trade the first Pasch configuration for the other one on its six
    points: swap two points that share none of its triples, within them. The
    swap keeps every pair covered once, so the result is again a Steiner
    triple system."""
    quad = pasch_configurations(triples)[0]
    points = sorted(frozenset().union(*quad))
    c, d = next(pair for pair in combinations(points, 2) if not any(set(pair) <= t for t in quad))
    swap = {c: d, d: c}
    return (triples - set(quad)) | {frozenset(swap.get(x, x) for x in t) for t in quad}


def sparse_paving(n: int, triples: set[frozenset[int]], perm=None) -> Matroid:
    """The rank-3 matroid whose nonbases are the given triples, its element e
    renamed perm[e]. For a Steiner triple system this is sparse paving."""
    perm = perm or list(range(n))
    kept = (c for c in combinations(range(n), 3) if frozenset(c) not in triples)
    return Matroid(n, [[perm[e] for e in c] for c in kept])


def brute_minor_witness(host: Matroid, pattern: Matroid) -> tuple[int, int] | None:
    """First (contract, delete) mask pair, in the same lexicographic order of
    sorted index tuples as `has_minor`, whose minor is isomorphic to the
    pattern, or None.

    Contract sets C must be independent (by `brute_rank`); the bases of
    (host / C) \\ D are B - C over the host's bases B that contain C and avoid
    D, and D is skipped when no such basis exists (the rank would drop).
    Minors are compared with `brute_isomorphic`.
    """
    csize = host.rank - pattern.rank
    dsize = host.n - csize - pattern.n
    if csize < 0 or dsize < 0:
        return None
    for contract in combinations(range(host.n), csize):
        cmask = sum(1 << e for e in contract)
        if brute_rank(host, cmask) != csize:
            continue
        rest = [e for e in range(host.n) if not cmask >> e & 1]
        for delete in combinations(rest, dsize):
            dmask = sum(1 << e for e in delete)
            kept = [e for e in rest if not dmask >> e & 1]
            bases = [
                [kept.index(e) for e in iter_bits(b & ~cmask)]
                for b in host.basis_masks
                if b & cmask == cmask and not b & dmask
            ]
            if bases and brute_isomorphic(Matroid(len(kept), bases), pattern):
                return cmask, dmask
    return None


# -- optimization ------------------------------------------------------------------


def round_greedy(m: Matroid, weights) -> list[int]:
    """The greedy rule one round at a time: each round rescans every element
    and takes the heaviest one, smallest index on ties, that keeps the chosen
    set independent."""
    chosen = 0
    order: list[int] = []
    while len(order) < m.rank:
        best = -1
        for e in range(m.n):
            if chosen >> e & 1 or best >= 0 and not weights[e] > weights[best]:
                continue
            if is_independent(m, chosen | 1 << e):
                best = e
        order.append(best)
        chosen |= 1 << best
    return order


def brute_max_basis_weight(m: Matroid, weights) -> object:
    return max(sum(weights[e] for e in iter_bits(b)) for b in m.basis_masks)


# -- tutte -------------------------------------------------------------------------


def tutte_by_deletion_contraction(m: Matroid):
    """Tutte polynomial by deletion-contraction on the smallest element that
    is neither a loop nor a coloop, each state a (ground, bases) pair with
    its own list of bases. A state that is all coloops and loops is a leaf
    and counts once towards x^(#coloops) * y^(#loops)."""
    from matroidkit import BivarPoly

    leaves: dict[tuple[int, int], int] = {}
    stack = [((1 << m.n) - 1, list(m.basis_masks))]
    while stack:
        ground, bases = stack.pop()
        union, inter = 0, ground
        for b in bases:
            union |= b
            inter &= b
        rest = union & ~inter
        if rest == 0:
            key = (inter.bit_count(), (ground & ~union).bit_count())
            leaves[key] = leaves.get(key, 0) + 1
            continue
        bit = rest & -rest
        stack.append((ground ^ bit, [b ^ bit for b in bases if b & bit]))
        stack.append((ground ^ bit, [b for b in bases if not b & bit]))
    return BivarPoly(leaves)


def tutte_by_corank_nullity(m: Matroid):
    """Tutte polynomial as Whitney's rank generating function, the sum over
    every subset S of (x - 1)^(r - r(S)) (y - 1)^(|S| - r(S)), with r(S) from
    the powerset oracle and each power expanded by the binomial theorem."""
    from matroidkit import BivarPoly

    exponents: dict[tuple[int, int], int] = {}
    for s in range(1 << m.n):
        rs = brute_rank(m, s)
        key = (m.rank - rs, s.bit_count() - rs)
        exponents[key] = exponents.get(key, 0) + 1
    terms: dict[tuple[int, int], int] = {}
    for (a, b), count in exponents.items():
        for i in range(a + 1):
            for j in range(b + 1):
                c = count * comb(a, i) * comb(b, j) * (-1) ** (a - i + b - j)
                terms[i, j] = terms.get((i, j), 0) + c
    return BivarPoly(terms)


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


def characteristic_by_moebius(m: Matroid) -> list[int]:
    """Characteristic polynomial, lowest degree first, as the sum over the
    flats F of mu(cl(empty), F) * t^(r - r(F)) (Rota 1964), with mu the Moebius
    function of the lattice of flats: mu(F) = -(sum of mu(G) over the flats G
    strictly below F). It is 0 when M has a loop. Flats of equal rank are never
    nested, so each level sums over the levels below it."""
    levels = m.flats()
    if levels[0][0].bits:
        return [0] * (m.rank + 1)
    mu, by_rank = {0: 1}, [1]
    for level in levels[1:]:
        found = {f.bits: -sum(v for g, v in mu.items() if g & ~f.bits == 0) for f in level}
        mu.update(found)
        by_rank.append(sum(found.values()))
    return by_rank[::-1]


# -- linear algebra ----------------------------------------------------------------


def brute_matrix_rank(grid, p: int | None = None) -> int:
    """Rank of a dense grid by textbook Gaussian elimination, over the
    rationals (Fractions) or, when p is given, over GF(p)."""
    if p is None:
        work = [[Fraction(e) for e in row] for row in grid]
    else:
        work = [[int(e) % p for e in row] for row in grid]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            if not work[i][c]:
                continue
            if p is None:
                f = work[i][c] / top[c]
                work[i] = [a - f * b for a, b in zip(work[i], top)]
            else:
                f = work[i][c] * pow(top[c], -1, p)
                work[i] = [(a - f * b) % p for a, b in zip(work[i], top)]
        rank += 1
    return rank


def brute_linear_bases(grid, ncols: int, p: int | None = None) -> set[int]:
    """Column bases as masks: the r-subsets of columns whose submatrix has the
    rank r of the whole matrix."""
    r = brute_matrix_rank(grid, p)
    return {
        sum(1 << j for j in combo)
        for combo in combinations(range(ncols), r)
        if brute_matrix_rank([[row[j] for j in combo] for row in grid], p) == r
    }


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
    return len(columns) - brute_matrix_rank(rows)


def _chain_monomials(degree: int, supersets: list[list[int]], nvars: int) -> list[tuple]:
    """Degree-d monomials, as ((variable, exponent), ...) in ascending flat
    order, whose variable support is a chain of flats.

    A monomial survives the quadric generators exactly when its support is
    pairwise comparable, i.e. a chain; chains are enumerated by walking the
    strict-containment DAG upward, distributing positive exponents as we go.
    """
    if degree == 0:
        return [()]
    out: list[tuple] = []
    stack: list[tuple[int, int]] = []

    def walk(var: int, remaining: int) -> None:
        for exp in range(1, remaining + 1):
            stack.append((var, exp))
            rest = remaining - exp
            if rest == 0:
                out.append(tuple(stack))
            else:
                for nxt in supersets[var]:
                    walk(nxt, rest)
            stack.pop()

    for var in range(nvars):
        walk(var, degree)
    return out


def chain_chow_hilbert(m: Matroid, degree: int, p: int | None = None) -> int:
    """Hilbert value by elimination over the chain-supported monomials, over
    the rationals or, when p is given, over GF(p).

    Monomials containing an incomparable pair are struck out directly by the
    quadric generators, and any linear-generator multiple whose monomial
    factor is itself struck out reduces to zero on what remains. The value is
    therefore the count of chain-supported monomials minus the rank of the
    chain-supported multiples of the linear generators, by `rank_rows_exact`.
    """
    pres = chow_presentation(m)
    if degree == 0:
        return 1
    nvars = len(pres.flats)
    if nvars == 0:
        return 0
    masks = [f.bits for f in pres.flats]
    sizes = [mask.bit_count() for mask in masks]
    supersets = [
        [w for w in range(nvars) if w != v and masks[v] & ~masks[w] == 0]
        for v in range(nvars)
    ]
    comparable = [
        [masks[a] & ~masks[b] == 0 or masks[b] & ~masks[a] == 0 for b in range(nvars)]
        for a in range(nvars)
    ]
    columns = _chain_monomials(degree, supersets, nvars)
    # numbered from the end, so the echelon pivots on monomials in the larger
    # flats first; over the rationals that keeps the fill-in small
    col_index = {mono: len(columns) - 1 - i for i, mono in enumerate(columns)}

    def bump(mono: tuple, var: int) -> tuple:
        exps = dict(mono)
        exps[var] = exps.get(var, 0) + 1
        return tuple(sorted(exps.items(), key=lambda t: sizes[t[0]]))

    rows: dict[frozenset, dict[int, int]] = {}
    for mono in _chain_monomials(degree - 1, supersets, nvars):
        support = [w for w, _ in mono]
        for gen in pres.linear_gens:
            row = {
                col_index[bump(mono, var)]: coeff
                for var, coeff in gen
                if all(comparable[var][s] for s in support)
            }
            if row:
                rows.setdefault(frozenset(row.items()), row)
    return len(columns) - rank_rows_exact(list(rows.values()), p=p)


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


# -- exhaustive corpus ---------------------------------------------------------------


def all_basis_families(max_n: int = 5):
    """Every nonempty family of equal-size subsets of range(n), n = 0 to max_n,
    as a Matroid whether or not it is one: per n and size r, one family for
    each nonempty choice among the C(n, r) r-sets. 2,229 families on n <= 5."""
    for n in range(max_n + 1):
        for r in range(n + 1):
            pool = [sum(1 << e for e in c) for c in combinations(range(n), r)]
            for pick in range(1, 1 << len(pool)):
                yield Matroid._from_masks(n, [pool[i] for i in iter_bits(pick)])


def _linear_subclasses(count: int, lines: list[int]) -> list[int]:
    """Every set S of hyperplanes, as a mask over their indices 0..count-1,
    that holds all or at most one of each line's hyperplanes: a line is the
    mask of the hyperplanes above one flat of rank r - 2. Each hyperplane in
    turn is left out, or put in with the closure of S under the line rule,
    unless that closure takes in one left out earlier."""
    out, stack = [], [(0, 0, 0)]  # (next hyperplane, in, left out)
    while stack:
        i, inside, outside = stack.pop()
        while inside >> i & 1:
            i += 1
        if i >= count:
            out.append(inside)
            continue
        stack.append((i + 1, inside, outside | 1 << i))
        grown, changed = inside | 1 << i, True
        while changed:
            changed = False
            for line in lines:
                if (grown & line).bit_count() > 1 and line & ~grown:
                    grown, changed = grown | line, True
        if not grown & outside:
            stack.append((i + 1, grown, outside))
    return out


def single_element_extensions(m: Matroid) -> list[Matroid]:
    """The extensions of m by a new element n that keep the rank, one for each
    linear subclass of its hyperplanes, plus the extension by a coloop (Crapo,
    J. Res. NBS 1965; Oxley, §7.2). Under the subclass S the new element
    joins the bases as I + n for each independent (r - 1)-set I whose closure
    is not in S: S empty adds a free element, all hyperplanes a loop."""
    n, r, bases = m.n, m.rank, m.basis_masks
    levels = [set(), set(), *brute_flats_by_rank(m)]  # levels[k + 2]: the flats of rank k
    hyperplanes = list(levels[r + 1])

    def above(s: int) -> list[int]:  # the indices of the hyperplanes holding s
        return [i for i, h in enumerate(hyperplanes) if s & ~h == 0]

    lines = [sum(1 << i for i in above(f)) for f in levels[r]]
    # each independent (r - 1)-set with the index of its closure
    spanned = [
        (s, above(s)[0]) for s in range(1 << n) if s.bit_count() == r - 1 and is_independent(m, s)
    ]
    new = 1 << n
    out = [Matroid._from_masks(n + 1, [b | new for b in bases])]
    for subclass in _linear_subclasses(len(hyperplanes), lines):
        added = [s | new for s, i in spanned if not subclass >> i & 1]
        out.append(Matroid._from_masks(n + 1, [*bases, *added]))
    return out


def all_matroids(max_n: int = 7) -> list[list[Matroid]]:
    """One matroid of each isomorphism class on n elements, for n = 0 to
    max_n: every single-element extension of the classes on n - 1 elements,
    kept when no kept matroid with the same (rank, basis count, sorted
    degrees, Tutte polynomial) is isomorphic to it. Every matroid on n > 0
    elements deletes to one on n - 1, so the extensions reach every class."""
    from matroidkit import isomorphism, tutte_polynomial

    levels = [[Matroid._from_masks(0, [0])]]
    for _ in range(max_n):
        kept: dict[tuple, list[Matroid]] = {}
        for m in levels[-1]:
            for x in single_element_extensions(m):
                degrees = sorted(sum(b >> e & 1 for b in x.basis_masks) for e in range(x.n))
                key = (x.rank, len(x.basis_masks), tuple(degrees), tutte_polynomial(x))
                group = kept.setdefault(key, [])
                if all(isomorphism(y, x) is None for y in group):
                    group.append(x)
        levels.append([x for group in kept.values() for x in group])
    return levels


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


def glued_graphs(count: int = 150, max_edges: int = 12):
    """Graphs on at most max_edges edges glued from cycles, K4s and single edges.
    Each piece starts at a vertex already placed, a cut vertex, or at a new
    vertex, which starts another connected component; a few vertices stay
    isolated."""
    rng = Random(31)
    for _ in range(count):
        v, edges, target = 1, [], rng.randint(3, max_edges - 1)
        while len(edges) < target:
            at = rng.randrange(v) if rng.random() < 0.8 else v
            size = rng.choice((2, 3, 4, 5, 4))  # 2: a single edge, 4: a K4 or a 4-cycle
            ring = [at] + list(range(v + (at == v), v + (at == v) + size - 1))
            v = ring[-1] + 1
            if size == 4 and rng.random() < 0.5:
                edges += combinations(ring, 2)
            else:
                edges += [(ring[i - 1], ring[i]) for i in range(1 if size == 2 else 0, size)]
        order = edges[:max_edges]
        rng.shuffle(order)
        yield graph_from_edges(v + rng.randint(0, 2), order)


def invalid_families(seed: int, count: int, max_n: int = 8) -> list[Matroid]:
    """count seeded equicardinal basis families that fail `is_valid()`."""
    rng = Random(seed)
    out: list[Matroid] = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        pool = list(combinations(range(n), rng.randint(1, n - 1)))
        m = Matroid(n, rng.sample(pool, rng.randint(2, min(len(pool), 12))))
        if not m.is_valid():
            out.append(m)
    return out


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
