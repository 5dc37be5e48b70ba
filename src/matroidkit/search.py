"""Matroid isomorphism with witnesses, and minor detection by contract/delete search."""

from __future__ import annotations

from itertools import combinations

from .core import Matroid
from .subsets import Frozen, GroundSubset, iter_bits, k_subsets


class IsoWitness(Frozen):
    """Permutation sending element i of the source to perm[i] of the target."""

    __slots__ = ("perm",)
    perm: tuple[int, ...]


class MinorWitness(Frozen):
    """Contract/delete pair (in the host matroid's indices) plus the isomorphism
    from the resulting minor onto the pattern."""

    __slots__ = ("contract", "delete", "iso")
    contract: GroundSubset
    delete: GroundSubset
    iso: IsoWitness


def _walked_pair_counts(m: Matroid) -> list[dict[int, int]]:
    """pc[a][c]: the bases holding both a and c, kept only for pairs that
    share one, so pc[a][a] is the degree of a; |B| r^2 dict updates."""
    pc: list[dict[int, int]] = [{} for _ in range(m.n)]
    for b in m.basis_masks:
        elems = list(iter_bits(b))
        for a in elems:
            row = pc[a]
            for c in elems:
                row[c] = row.get(c, 0) + 1
    return pc


def _column_pair_counts(m: Matroid) -> list[dict[int, int]]:
    """The same table as n^2 popcounts of col[a] & col[c]."""
    col = m._columns()
    return [{c: k for c, cc in enumerate(col) if (k := (ca & cc).bit_count())} for ca in col]


def _walk_is_cheaper(n: int, rank: int, bases: int) -> bool:
    """Whether the walk's |B| r^2 dict updates cost less than the n^2
    popcounts, each of which reads a column |B| bits wide. Timed on both
    sides over 64 shapes (uniform matroids of rank 1 to 5, sums of wide
    rank-1 parts, M(K5) to M(K7), seeded random matroids; CPython 3.11,
    2-core x86-64), a popcount costs about (|B| + 512) / 2048 dict updates,
    and this rule's choice was never more than 10% slower than the faster
    side. U(2, n) walks from n = 90 on, sums of a few rank-1 parts with
    hundreds of parallel elements walk at any rank, and M(K7) reads the
    columns."""
    return 2048 * bases * rank * rank < n * n * (bases + 512)


def isomorphism(source: Matroid, target: Matroid) -> IsoWitness | None:
    """First basis-preserving bijection in deterministic order, or None.

    Size, rank, basis count and the sorted per-element basis degrees must
    agree. The search is then pruned backtracking: candidates must match
    per-element basis degrees, and partial maps must preserve pairwise basis
    co-occurrence counts. Both come from one table per matroid, whose
    diagonal entry for an element is its degree, read off the basis columns
    as n^2 popcounts of col[a] & col[c], or by walking the bases where
    `_walk_is_cheaper` finds that faster (wide inputs of low rank). Once
    i -> t passes, every source basis whose largest element is i is
    complete, and its image must be a target basis. Conversely, from rank 3
    on and where the columns were read, the target bases inside the image
    that hold t must be exactly as many: on the target columns, the bases
    holding t whose other r - 1 elements are already mapped. A bitmask of
    the bases with r - 1 mapped elements is kept per depth, updated in r - 1
    steps per mapping. Below rank 3 the pair counts already fix this count.
    A complete assignment has then mapped each basis into the target's,
    injectively, and the basis counts agree, so it is an isomorphism. The
    search runs depth first on its own stack and tries the candidates of
    each element in increasing order.
    """
    if (
        source.n != target.n
        or source.rank != target.rank
        or len(source.basis_masks) != len(target.basis_masks)
    ):
        return None
    n = source.n
    if source == target:
        return IsoWitness(tuple(range(n)))

    r = source.rank
    walk = _walk_is_cheaper(n, r, len(source.basis_masks))
    pair_counts = _walked_pair_counts if walk else _column_pair_counts
    pc_s, pc_t = pair_counts(source), pair_counts(target)
    deg_s = [pc_s[a].get(a, 0) for a in range(n)]
    deg_t = [pc_t[a].get(a, 0) for a in range(n)]
    if sorted(deg_s) != sorted(deg_t):
        return None
    # below[i]: the pair counts of i with the elements mapped before it
    below = [{j: c for j, c in pc_s[i].items() if j < i} for i in range(n)]
    by_degree: dict[int, list[int]] = {}
    for t in range(n):
        by_degree.setdefault(deg_t[t], []).append(t)
    target_set = set(target.basis_masks)
    # by_top[i]: the other elements of each source basis whose largest is i
    by_top: list[list[list[int]]] = [[] for _ in range(n)]
    for b in source.basis_masks:
        elems = list(iter_bits(b))
        by_top[elems.pop()].append(elems)
    assign: list[int] = []  # assign[i]: the image of source element i
    origin = [-1] * n  # origin[t]: the source element mapped to t, or -1
    # the converse count's table, from rank 3 on, where the pair counts built it
    col_t = target._columns() if r > 2 and not walk else None
    # reached[-1][k]: the target bases holding more than k mapped elements, one
    # list per depth; reached[-1][r - 2] marks those with r - 1 of their r mapped
    reached = [[0] * (r - 1)]

    def fits(i: int, t: int) -> bool:
        """Whether i -> t keeps every pair count with the elements already
        mapped, leaves as many target bases inside the image holding t as
        there are source bases completed by i, and maps each of those onto a
        target basis."""
        if below[i] != {origin[u]: c for u, c in pc_t[t].items() if origin[u] >= 0}:
            return False
        if col_t is not None and (col_t[t] & reached[-1][r - 2]).bit_count() != len(by_top[i]):
            return False
        for rest in by_top[i]:
            image = 1 << t
            for j in rest:
                image |= 1 << assign[j]
            if image not in target_set:
                return False
        return True

    # levels[i]: the untried candidates for source element i
    levels = [iter(by_degree[deg_s[0]])]
    while levels:
        i = len(assign)
        for t in levels[-1]:
            if origin[t] >= 0 or not fits(i, t):
                continue
            if i + 1 == n:
                return IsoWitness(tuple(assign) + (t,))
            assign.append(t)
            origin[t] = i
            if col_t is not None:
                prev, c = reached[-1], col_t[t]
                reached.append([prev[0] | c] + [prev[k] | prev[k - 1] & c for k in range(1, r - 1)])
            levels.append(iter(by_degree[deg_s[i + 1]]))
            break
        else:
            levels.pop()
            if assign:
                origin[assign.pop()] = -1
                if col_t is not None:
                    reached.pop()
    return None


def has_minor(host: Matroid, pattern: Matroid) -> MinorWitness | None:
    """Search for the pattern among the host's minors.

    Every minor arises as (host / I) \\ J with I independent and J
    coindependent in host / I, so it suffices to contract independent sets of
    size rank(host) - rank(pattern), then delete coindependent sets down to
    the pattern's size. Both are enumerated lexicographically, as sorted
    index tuples, so the witness returned is the first pair in that order
    and is deterministic.

    Everything is screened on one table, the host's basis columns: col[e] is
    the bitmask over basis positions of the bases that contain e. `_grow(I)`
    gives `every`, the bases that contain a basis of I, and the rank of I;
    I is dependent when that rank is below |I|, and otherwise `every` marks
    the bases that contain I, which, less I, are the bases of host / I. For
    a delete set D, `alive = every & ~OR(col[e] for e in D)` marks the bases
    that also avoid D. D survives only if alive holds the pattern's basis
    count, which also makes D coindependent, so alive is exactly the bases
    of (host / I) \\ D, and col[e] & alive counts the bases of that minor
    holding e. Sorted over the elements of host / I, those counts are the
    minor's per-element basis degrees plus |D| zeros, and must equal the
    pattern's. Only survivors are built, with `transform._minor` on the two
    masks, and handed to `isomorphism`.
    """
    from .transform import _minor
    n, csize = host.n, host.rank - pattern.rank
    dsize = n - csize - pattern.n
    if csize < 0 or dsize < 0:
        return None
    pat_bases = len(pattern.basis_masks)
    pat_degrees = sorted([0] * dsize + [c.bit_count() for c in pattern._columns()])
    delete_sets = list(combinations(range(n - csize), dsize))
    col = host._columns()

    for contract in k_subsets(n, csize):
        every, r = host._grow(contract)
        if r < csize:
            continue
        remaining = [e for e in range(n) if not contract >> e & 1]
        inner_col = [col[e] & every for e in remaining]  # host / I, in host basis positions
        for delete_set in delete_sets:
            dead = 0
            for j in delete_set:
                dead |= inner_col[j]
            alive = every & ~dead
            if alive.bit_count() != pat_bases:
                continue
            if sorted((c & alive).bit_count() for c in inner_col) != pat_degrees:
                continue
            delete = sum(1 << remaining[j] for j in delete_set)
            iso = isomorphism(_minor(host, contract, delete), pattern)
            if iso is not None:
                return MinorWitness(GroundSubset(contract, n), GroundSubset(delete, n), iso)
    return None
