"""Matroid isomorphism with witnesses, and minor detection by contract/delete search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Matroid
from .subsets import GroundSubset, iter_bits, mask_from_indices
from .transform import contraction, deletion


@dataclass(frozen=True, slots=True)
class IsoWitness:
    """Permutation sending element i of the source to perm[i] of the target."""

    perm: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class MinorWitness:
    """Contract/delete pair (in the host matroid's indices) plus the isomorphism
    from the resulting minor onto the pattern."""

    contract: GroundSubset
    delete: GroundSubset
    iso: IsoWitness


def apply_permutation(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for e in iter_bits(mask):
        out |= 1 << perm[e]
    return out


def isomorphism(source: Matroid, target: Matroid) -> IsoWitness | None:
    """First basis-preserving bijection in deterministic order, or None.

    The search is pruned backtracking: candidates must match per-element basis
    degrees, and partial maps must preserve pairwise basis co-occurrence
    counts. A complete assignment is accepted only if it maps the basis set
    onto the target's basis set exactly. The search runs depth first on its
    own stack and tries the candidates of each element in increasing order.
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
    if sorted(len(c) for c in source.circuits()) != sorted(
        len(c) for c in target.circuits()
    ):
        return None

    def degrees(m: Matroid) -> list[int]:
        deg = [0] * n
        for b in m.basis_masks:
            for e in iter_bits(b):
                deg[e] += 1
        return deg

    def pair_counts(m: Matroid) -> list[dict[int, int]]:
        # pc[a][c]: bases holding both a and c, kept only for pairs that share one
        pc: list[dict[int, int]] = [{} for _ in range(n)]
        for b in m.basis_masks:
            elems = list(iter_bits(b))
            for i, a in enumerate(elems):
                for c in elems[i + 1 :]:
                    pc[a][c] = pc[a].get(c, 0) + 1
                    pc[c][a] = pc[c].get(a, 0) + 1
        return pc

    deg_s, deg_t = degrees(source), degrees(target)
    if sorted(deg_s) != sorted(deg_t):
        return None
    pc_s, pc_t = pair_counts(source), pair_counts(target)
    by_degree: dict[int, list[int]] = {}
    for t in range(n):
        by_degree.setdefault(deg_t[t], []).append(t)
    target_set = set(target.basis_masks)
    assign: list[int] = []  # assign[i]: the image of source element i
    origin = [-1] * n  # origin[t]: the source element mapped to t, or -1

    def fits(i: int, t: int) -> bool:
        """Whether i -> t keeps every pair count with the elements already mapped."""
        mapped_s = {j: c for j, c in pc_s[i].items() if j < i}
        mapped_t = {origin[u]: c for u, c in pc_t[t].items() if origin[u] >= 0}
        return mapped_s == mapped_t

    # levels[i]: the untried candidates for source element i
    levels = [iter(by_degree[deg_s[0]])]
    while levels:
        i = len(assign)
        for t in levels[-1]:
            if origin[t] >= 0 or not fits(i, t):
                continue
            if i + 1 < n:
                assign.append(t)
                origin[t] = i
                levels.append(iter(by_degree[deg_s[i + 1]]))
                break
            perm = tuple(assign) + (t,)
            if {apply_permutation(b, perm) for b in source.basis_masks} == target_set:
                return IsoWitness(perm)
        else:
            levels.pop()
            if assign:
                origin[assign.pop()] = -1
    return None


def _colex_subsets(pool: int, size: int) -> list[tuple[int, ...]]:
    return sorted(combinations(range(pool), size), key=lambda c: c[::-1])


def has_minor(host: Matroid, pattern: Matroid) -> MinorWitness | None:
    """Search for the pattern among the host's minors.

    Every minor arises as (host / I) \\ J with I independent and J
    coindependent in host / I, so it suffices to contract independent sets of
    size rank(host) - rank(pattern), then delete coindependent sets down to
    the pattern's size. Both are enumerated colexicographically, so the
    witness returned is the first pair in that order and is deterministic.

    No candidate minor is built until bit screens pass. For each contraction
    host / I, col[e] is the bitmask over basis positions of the bases that
    contain e, so `alive = every & ~OR(col[e] for e in D)` marks the bases
    that avoid a delete set D. D survives only if alive holds the pattern's
    basis count, which also makes D coindependent, so alive is exactly the
    bases of (host / I) \\ D. Among the kept elements, col[e] & alive == 0
    marks a loop and col[e] & alive == alive a coloop; both counts must equal
    the pattern's. Only survivors are built with `deletion` and handed to
    `isomorphism`, which screens by circuit-size multiset before it searches.
    """
    if pattern.rank > host.rank or pattern.n > host.n:
        return None
    csize = host.rank - pattern.rank
    dsize = host.n - csize - pattern.n
    if dsize < 0:
        return None
    pat_loops = len(pattern.loops())
    pat_coloops = len(pattern.coloops())
    pat_bases = len(pattern.basis_masks)
    inner_n = host.n - csize
    delete_sets = []
    for delete_set in _colex_subsets(inner_n, dsize):
        dmask = mask_from_indices(delete_set, inner_n)
        kept = tuple(e for e in range(inner_n) if not dmask >> e & 1)
        delete_sets.append((delete_set, dmask, kept))

    for contract_set in _colex_subsets(host.n, csize):
        inner = contraction(host, contract_set)
        if inner.rank != pattern.rank:
            continue
        col = [0] * inner_n
        for i, b in enumerate(inner.basis_masks):
            for e in iter_bits(b):
                col[e] |= 1 << i
        every = (1 << len(inner.basis_masks)) - 1
        for delete_set, dmask, kept in delete_sets:
            dead = 0
            for e in delete_set:
                dead |= col[e]
            alive = every & ~dead
            if alive.bit_count() != pat_bases:
                continue
            loops = coloops = 0
            for e in kept:
                hit = col[e] & alive
                if hit == 0:
                    loops += 1
                elif hit == alive:
                    coloops += 1
            if loops != pat_loops or coloops != pat_coloops:
                continue
            candidate = deletion(inner, GroundSubset(dmask, inner_n))
            iso = isomorphism(candidate, pattern)
            if iso is not None:
                remaining = [e for e in range(host.n) if e not in contract_set]
                return MinorWitness(
                    GroundSubset.of(contract_set, host.n),
                    GroundSubset.of((remaining[j] for j in delete_set), host.n),
                    iso,
                )
    return None
