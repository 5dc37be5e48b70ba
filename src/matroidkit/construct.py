"""Matroid constructors: uniform, linear, graphic, circuits/nonbases entry,
named matroids, direct sums, and connected components."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .core import Matroid, SubsetLike, as_mask
from .graphs import Graph, component_count, get_cycles
from .linalg import ExactMatrix
from .subsets import GroundSubset, iter_bits, mask_from_indices, minimal_masks
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


def linear_matroid(matrix: ExactMatrix) -> Matroid:
    """Column matroid of an exact matrix: bases are the full-rank column r-subsets."""
    r = matrix.rank()
    masks = [
        mask_from_indices(combo, matrix.cols)
        for combo in combinations(range(matrix.cols), r)
        if matrix.rank(combo) == r
    ]
    labels = tuple(matrix.column_label(j) for j in range(matrix.cols))
    return Matroid._from_masks(matrix.cols, masks, labels)


def matroid_from_circuits(
    n: int,
    circuits: Iterable[SubsetLike],
    target_rank: int | None = None,
    labels: Sequence[str] | None = None,
) -> Matroid:
    """Matroid whose independent sets are exactly the circuit-free subsets.

    The given family is reduced to its inclusion-minimal members. The rank is
    the size of a greedily grown maximal circuit-free set; the bases are then
    enumerated by backtracking over rank-sized circuit-free subsets.
    """
    raw = []
    for c in circuits:
        m = as_mask(c, n)
        if m == 0:
            raise ValueError("the empty set cannot be a circuit")
        raw.append(m)
    circ = minimal_masks(raw)
    by_elem: list[list[int]] = [[] for _ in range(n)]
    for c in circ:
        for e in iter_bits(c):
            by_elem[e].append(c)

    def blocked(candidate: int, e: int) -> bool:
        return any(c & ~candidate == 0 for c in by_elem[e])

    grown = 0
    for e in range(n):
        new = grown | 1 << e
        if not blocked(new, e):
            grown = new
    rank = grown.bit_count()
    if target_rank is not None and target_rank != rank:
        raise ValueError(f"circuits force rank {rank}, not the requested {target_rank}")

    bases: list[int] = []

    def grow(start: int, current: int, size: int) -> None:
        if size == rank:
            bases.append(current)
            return
        for e in range(start, n):
            if n - e < rank - size:
                break
            new = current | 1 << e
            if not blocked(new, e):
                grow(e + 1, new, size + 1)

    grow(0, 0, 0)
    return Matroid._from_masks(n, bases, labels)


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
    """Matroid on the edges of a graph whose circuits are the simple cycles."""
    cycles = get_cycles(graph)
    target = graph.v - component_count(graph)
    labels = tuple("{%d, %d}" % e for e in graph.edges)
    return matroid_from_circuits(
        len(graph.edges), [c.edge_indices for c in cycles], target, labels
    )


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
    """Connected components: classes of the circuit co-occurrence relation.

    Loops and coloops end up as singleton components. Parts are returned as
    restrictions, ordered by their minimum element, so a matroid assembled as
    a direct sum of connected pieces is reproduced by summing the results.
    """
    n = matroid.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for circ in matroid.circuits():
        elems = circ.indices()
        for a, b in zip(elems, elems[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

    parts: dict[int, int] = {}
    for e in range(n):
        root = find(e)
        parts[root] = parts.get(root, 0) | 1 << e
    ordered = sorted(parts.values(), key=lambda m: (m & -m).bit_length())
    return [restriction(matroid, GroundSubset(m, n)) for m in ordered]
