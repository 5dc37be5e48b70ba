"""Matroid constructors: uniform, linear, graphic, circuits/nonbases entry,
named matroids, direct sums, and connected components."""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import Matroid, SubsetLike, _fundamental_circuits, as_mask
from .subsets import classes, iter_bits, mask_from_indices

# graphs, linalg and transform load only with the one function that uses each
if TYPE_CHECKING:
    from .graphs import Graph
    from .linalg import ExactMatrix

FANO_NONBASES = (
    (0, 1, 2),
    (0, 4, 5),
    (0, 3, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 4),
    (2, 5, 6),
)

# Rank-4 matroid on four pairs {0,1} {2,3} {4,5} {6,7}: five of the six
# pair-unions are dependent, the sixth ({4,5,6,7}) is a basis.
VAMOS_NONBASES = (
    (0, 1, 2, 3),
    (0, 1, 4, 5),
    (0, 1, 6, 7),
    (2, 3, 4, 5),
    (2, 3, 6, 7),
)


def uniform_matroid(rank: int, n: int) -> Matroid:
    """U(r, n): every r-subset of the ground set is a basis."""
    if not 0 <= rank <= n:
        raise ValueError(f"uniform matroid needs 0 <= rank <= n, got ({rank}, {n})")
    masks = [mask_from_indices(combo, n) for combo in combinations(range(n), rank)]
    return Matroid._from_masks(n, masks)


def _bases(n: int, start, extend, bits: Sequence[int] | None = None) -> list[int]:
    """Bases of the matroid on range(n) whose independent sets grow by extend,
    each the OR of bits[e] over its elements e (by default 1 << e).

    extend(state, e) returns the state of an independent set of elements below
    e plus e, or None when e depends on the set. The bases are listed depth
    first in index order (Read and Tarjan, Networks 1975). A dependent element
    is left out for free, any other only while the set plus the later elements
    still reaches the rank, so every branch ends in a basis.
    """

    def reach(state, e: int, need: int) -> int:
        # size of the greedy extension by the elements from e on, capped at need
        got = 0
        for f in range(e, n):
            nxt = extend(state, f)
            if nxt is not None:
                state, got = nxt, got + 1
                if got == need:
                    break
        return got

    bit = bits or [1 << f for f in range(n)]
    bases: list[int] = []
    # pending branches: (state, mask, elements still needed, next element)
    stack = [(start, 0, reach(start, 0, n), 0)]
    while stack:
        state, mask, need, e = stack.pop()
        if need == 0:
            bases.append(mask)
        elif need == 1:
            bases += [mask | bit[f] for f in range(e, n) if extend(state, f) is not None]
        else:
            for f in range(e, n):
                nxt = extend(state, f)
                if nxt is not None:
                    if n - f > need and reach(state, f + 1, need) == need:
                        stack.append((state, mask, need, f + 1))
                    stack.append((nxt, mask | bit[f], need - 1, f + 1))
                    break
    return bases


def linear_matroid(matrix: ExactMatrix) -> Matroid:
    """Column matroid of an exact matrix, grown one echelon step per column."""
    from .linalg import _integral, echelon_insert
    cols = [{i: r[j] for i, r in enumerate(matrix.entries) if r[j]} for j in range(matrix.cols)]
    if matrix.field is None:  # scaling a column keeps the column matroid
        cols = [_integral(c) for c in cols]

    def extend(pivots: dict, j: int) -> dict | None:
        new = dict(pivots)
        return new if echelon_insert(new, dict(cols[j]), matrix.field) else None

    labels = tuple(matrix.column_label(j) for j in range(matrix.cols))
    return Matroid._from_masks(matrix.cols, _bases(matrix.cols, {}, extend), labels)


def matroid_from_circuits(
    n: int, circuits: Iterable[SubsetLike], labels: Sequence[str] | None = None
) -> Matroid:
    """Matroid whose circuits are exactly the inclusion-minimal members of the
    family, or ValueError when there is none.

    Each circuit is indexed under its largest element: a set grown in index
    order first holds a circuit when that element arrives, so no basis grown
    holds a member. The minimal members are then a matroid's circuits exactly
    when every fundamental circuit of the result is a member: no fundamental
    circuit lies in a basis, which makes the result a matroid, its circuits
    are the fundamental ones, and a member holding another circuit is not
    minimal.
    """
    by_top: list[list[int]] = [[] for _ in range(n)]
    for c in circuits:
        m = as_mask(c, n)
        if m == 0:
            raise ValueError("the empty set cannot be a circuit")
        by_top[m.bit_length() - 1].append(m)

    def extend(mask: int, e: int) -> int | None:
        new = mask | 1 << e
        return None if any(c & ~new == 0 for c in by_top[e]) else new

    matroid = Matroid._from_masks(n, _bases(n, 0, extend), labels)
    family = {c for row in by_top for c in row}
    if not _fundamental_circuits(matroid.basis_masks, matroid._full()) <= family:
        raise ValueError("the family's minimal members are not the circuits of a matroid")
    return matroid


def matroid_from_nonbases(
    n: int,
    nonbases: Iterable[SubsetLike],
    rank: int,
    labels: Sequence[str] | None = None,
) -> Matroid:
    """Matroid given by its dependent rank-sized subsets."""
    if not 0 <= rank <= n:
        raise ValueError(f"need 0 <= rank <= n, got ({rank}, {n})")
    excluded = set()
    for s in nonbases:
        m = as_mask(s, n)
        if m.bit_count() != rank:
            raise ValueError(f"nonbasis of size {m.bit_count()}, expected {rank}")
        excluded.add(m)
    candidates = (mask_from_indices(combo, n) for combo in combinations(range(n), rank))
    masks = [m for m in candidates if m not in excluded]
    if not masks:
        raise ValueError("every rank-sized subset is excluded; no bases remain")
    return Matroid._from_masks(n, masks, labels)


def graphic_matroid(graph: Graph) -> Matroid:
    """Matroid on the edges of a graph whose circuits are the simple cycles.

    The blocks come from the graph alone, from the one block pass that cycle
    enumeration shares, `graphs._blocks`. A basis is one spanning tree per
    block, so a bridge lies in every basis,
    and the generator runs once per other block: an edge extends a forest
    when its ends lie in different components. The state is a string with one
    component label per vertex, so joining two components is one str.replace."""
    from .graphs import _blocks
    ends = graph.edges
    blocks, start = _blocks(graph), "".join(map(chr, range(graph.v)))
    masks = [sum(k for k in blocks if k & k - 1 == 0)]
    for es in (list(iter_bits(k)) for k in blocks if k & k - 1):
        sides = [ends[e] for e in es]

        def extend(comp: str, i: int, sides=sides) -> str | None:
            a, b = comp[sides[i][0]], comp[sides[i][1]]
            return None if a == b else comp.replace(a, b)

        part = _bases(len(es), start, extend, [1 << e for e in es])
        masks = [a | b for a in masks for b in part]
    labels = tuple("{%d, %d}" % e for e in ends)
    return Matroid._from_masks(len(ends), masks, labels)


def specific_matroid(name: str) -> Matroid:
    key = name.strip().lower()
    if key == "fano":
        return matroid_from_nonbases(7, FANO_NONBASES, 3)
    if key == "vamos":
        return matroid_from_nonbases(8, VAMOS_NONBASES, 4)
    raise ValueError(f"unknown named matroid {name!r}")


def direct_sum(left: Matroid, right: Matroid) -> Matroid:
    """Disjoint union of ground sets; bases are unions of one basis from each side.

    The right summand's indices shift up by left.n; labels are tagged with a
    component index to keep repeated sums unambiguous.
    """
    shift = left.n
    masks = [
        b1 | (b2 << shift) for b1 in left.basis_masks for b2 in right.basis_masks
    ]

    def tagged(m: Matroid, tag: int) -> list[str]:
        src = m.labels if m.labels is not None else tuple(str(i) for i in range(m.n))
        return [f"({lbl}, {tag})" for lbl in src]

    labels = tuple(tagged(left, 0) + tagged(right, 1))
    return Matroid._from_masks(left.n + right.n, masks, labels)


def _parts(matroid: Matroid) -> list[int]:
    """Masks of the connected components, ordered by their least element. The
    fundamental graph of one basis b0, which joins e and f when b0 ^ {e, f} is
    a basis, has the components of the matroid (Krogdahl, Discrete Math. 1977),
    and its edges are read off the bases in one pass. Loops and coloops end up
    as singleton parts."""
    b0 = matroid.basis_masks[0]
    swaps = (b ^ b0 for b in matroid.basis_masks)
    return classes(matroid.n, (iter_bits(d) for d in swaps if d.bit_count() == 2))


def components(matroid: Matroid) -> list[Matroid]:
    """Connected components in order of their least element, so summing them
    rebuilds a direct sum of connected pieces. A basis meets each component P
    in r(P) elements, so the sets B & P are the bases of M | P."""
    from .transform import _reindex
    return [_reindex(matroid, p, {b & p for b in matroid.basis_masks}) for p in _parts(matroid)]
