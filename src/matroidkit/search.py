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
    onto the target's basis set exactly.
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

    def pair_counts(m: Matroid) -> list[list[int]]:
        pc = [[0] * n for _ in range(n)]
        for b in m.basis_masks:
            elems = list(iter_bits(b))
            for i, a in enumerate(elems):
                for c in elems[i + 1 :]:
                    pc[a][c] += 1
                    pc[c][a] += 1
        return pc

    deg_s, deg_t = degrees(source), degrees(target)
    if sorted(deg_s) != sorted(deg_t):
        return None
    pc_s, pc_t = pair_counts(source), pair_counts(target)
    candidates = [[t for t in range(n) if deg_t[t] == deg_s[i]] for i in range(n)]
    target_set = set(target.basis_masks)
    assign = [-1] * n
    used = [False] * n

    def dfs(i: int) -> bool:
        if i == n:
            mapped = {apply_permutation(b, tuple(assign)) for b in source.basis_masks}
            return mapped == target_set
        row_s = pc_s[i]
        for t in candidates[i]:
            if used[t]:
                continue
            row_t = pc_t[t]
            if any(row_s[j] != row_t[assign[j]] for j in range(i)):
                continue
            assign[i] = t
            used[t] = True
            if dfs(i + 1):
                return True
            used[t] = False
            assign[i] = -1
        return False

    if dfs(0):
        return IsoWitness(tuple(assign))
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
    the pattern's. Only survivors are built with `deletion`, then screened
    by circuit-size multiset before the isomorphism search runs.
    """
    if pattern.rank > host.rank or pattern.n > host.n:
        return None
    csize = host.rank - pattern.rank
    dsize = host.n - csize - pattern.n
    if dsize < 0:
        return None
    pat_circ = sorted(len(c) for c in pattern.circuits())
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
            if sorted(len(c) for c in candidate.circuits()) != pat_circ:
                continue
            iso = isomorphism(candidate, pattern)
            if iso is not None:
                remaining = [e for e in range(host.n) if e not in contract_set]
                return MinorWitness(
                    GroundSubset.of(contract_set, host.n),
                    GroundSubset.of((remaining[j] for j in delete_set), host.n),
                    iso,
                )
    return None
