"""Matroid constructors: uniform, linear, graphic, circuits/nonbases entry,
named matroids, direct sums, and connected components."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .core import Matroid, SubsetLike, as_mask
from .graphs import Graph
from .linalg import ExactMatrix, echelon_insert
from .subsets import GroundSubset, iter_bits, mask_from_indices
from .transform import restriction

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


def _bases(n: int, start, extend) -> list[int]:
    """Bases of the matroid on range(n) whose independent sets grow by extend.

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

    bases: list[int] = []
    # pending branches: (state, mask, elements still needed, next element)
    stack = [(start, 0, reach(start, 0, n), 0)]
    while stack:
        state, mask, need, e = stack.pop()
        if need == 0:
            bases.append(mask)
        elif need == 1:
            bases += [mask | 1 << f for f in range(e, n) if extend(state, f) is not None]
        else:
            for f in range(e, n):
                nxt = extend(state, f)
                if nxt is not None:
                    if n - f > need and reach(state, f + 1, need) == need:
                        stack.append((state, mask, need, f + 1))
                    stack.append((nxt, mask | 1 << f, need - 1, f + 1))
                    break
    return bases


def linear_matroid(matrix: ExactMatrix) -> Matroid:
    """Column matroid of an exact matrix, grown one echelon step per column."""
    cols = [{i: r[j] for i, r in enumerate(matrix.entries) if r[j]} for j in range(matrix.cols)]

    def extend(pivots: dict, j: int) -> dict | None:
        new = dict(pivots)
        return new if echelon_insert(new, dict(cols[j]), matrix.field) else None

    labels = tuple(matrix.column_label(j) for j in range(matrix.cols))
    return Matroid._from_masks(matrix.cols, _bases(matrix.cols, {}, extend), labels)


def matroid_from_circuits(
    n: int, circuits: Iterable[SubsetLike], labels: Sequence[str] | None = None
) -> Matroid:
    """Matroid whose independent sets are exactly the circuit-free subsets.

    Each circuit is indexed under its largest element: a set grown in index
    order first holds a circuit when that element arrives. Only the
    inclusion-minimal members of the family matter.
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

    return Matroid._from_masks(n, _bases(n, 0, extend), labels)


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
    """Matroid on the edges of a graph whose circuits are the simple cycles:
    an edge extends a forest when its ends lie in different components. The
    state is a string with one component label per vertex, so that joining
    two components is one str.replace."""
    ends = graph.edges

    def extend(comp: str, e: int) -> str | None:
        a, b = comp[ends[e][0]], comp[ends[e][1]]
        return None if a == b else comp.replace(a, b)

    start = "".join(map(chr, range(graph.v)))
    labels = tuple("{%d, %d}" % e for e in ends)
    return Matroid._from_masks(len(ends), _bases(len(ends), start, extend), labels)


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


def components(matroid: Matroid) -> list[Matroid]:
    """Connected components, read off one basis b: each e outside b is joined
    with its fundamental circuit C(e, b). The fundamental graph of any single
    basis has the components of the matroid (Krogdahl, Discrete Math. 1977).

    Loops and coloops end up as singleton components. Parts are returned as
    restrictions, ordered by their minimum element, so a matroid assembled as
    a direct sum of connected pieces is reproduced by summing the results.
    """
    n = matroid.n
    b = matroid.basis_masks[0]
    base_set = set(matroid.basis_masks)
    comp = "".join(map(chr, range(n)))  # one component label per element
    for e in iter_bits(((1 << n) - 1) ^ b):
        for f in iter_bits(matroid._exchange(base_set, b, e) ^ 1 << e):
            comp = comp.replace(comp[f], comp[e])
    parts: dict[str, int] = {}
    for e, label in enumerate(comp):
        parts[label] = parts.get(label, 0) | 1 << e
    # each part is first met at its minimum element
    return [restriction(matroid, GroundSubset(m, n)) for m in parts.values()]
