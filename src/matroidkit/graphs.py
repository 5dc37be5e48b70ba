"""Simple undirected graphs and exhaustive cycle enumeration."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .subsets import Frozen, GroundSubset, classes


class Graph(Frozen):
    """Simple undirected graph: vertex count plus an ordered edge list.

    Edge order is fixed at construction; it defines the ground-set indexing
    of the graphic matroid. Edges are stored as (u, w) with u < w.
    """

    __slots__ = ("v", "edges")
    v: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, v: int, edges: tuple[tuple[int, int], ...]) -> None:
        seen = set()
        for u, w in edges:
            if not (0 <= u < v and 0 <= w < v):
                raise ValueError(f"edge ({u}, {w}) has an endpoint outside [0, {v})")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            if u > w:
                raise ValueError(f"edge ({u}, {w}) not normalized; use graph_from_edges")
            if (u, w) in seen:
                raise ValueError(f"duplicate edge ({u}, {w})")
            seen.add((u, w))
        super().__init__(v, edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.v)]
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}


class Cycle(Frozen):
    """A simple cycle: its edge set plus a canonical closed-walk representative.

    The representative starts (and ends) at the cycle's minimum vertex, with
    the smaller of that vertex's two cycle neighbors second, which kills both
    rotation and orientation.
    """

    __slots__ = ("edge_indices", "vertex_sequence")
    edge_indices: GroundSubset
    vertex_sequence: tuple[int, ...]


def graph_from_edges(v: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, normalizing edge endpoints and dropping duplicates.
    Graph checks the endpoints."""
    if v < 0:
        raise ValueError("vertex count must be nonnegative")
    out: list[tuple[int, int]] = []
    seen = set()
    for u, w in edges:
        e = (u, w) if u < w else (w, u)
        if e not in seen:
            seen.add(e)
            out.append(e)
    return Graph(v, tuple(out))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, tuple(combinations(range(n), 2)))


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer n-cycle, spokes, and an inner cycle with skip k."""
    if n < 3:
        raise ValueError("generalized Petersen graph needs n >= 3")
    if not 1 <= k < n:
        raise ValueError("skip must satisfy 1 <= k < n")
    if 2 * k == n:
        raise ValueError("skip k = n/2 would create parallel inner edges")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
    for i in range(n):
        edges.append((i, n + i))
    for i in range(n):
        edges.append((n + i, n + (i + k) % n))
    return graph_from_edges(2 * n, edges)


def _closed_walks(
    adj: list[list[int]], anchor: int, alive: list[bool], limit: int
) -> Iterator[tuple[int, ...]]:
    """Closed walks of 3 to limit edges from anchor back to it through distinct
    alive vertices above it, in depth-first order over the sorted neighbour
    lists. Each cycle comes once per orientation, and the walks are yielded, so
    a caller that keeps one orientation never holds both."""
    path = [anchor]
    on = [False] * len(adj)
    # nbrs[k]: the untried neighbours of path[k]
    nbrs = [iter(adj[anchor])]
    while nbrs:
        for w in nbrs[-1]:
            if w == anchor:
                if len(path) >= 3:
                    yield (*path, anchor)
            elif w > anchor and alive[w] and not on[w] and len(path) < limit:
                on[w] = True
                path.append(w)
                nbrs.append(iter(adj[w]))
                break
        else:
            nbrs.pop()
            on[path.pop()] = False


def closed_walks(graph: Graph, v: int, length: int) -> list[tuple[int, ...]]:
    """Non-self-intersecting closed walks of a given edge count anchored at v.

    Walks start and end at v and visit no vertex smaller than v; each cycle
    through v whose minimum vertex is v therefore appears exactly twice, once
    per orientation.
    """
    if not 0 <= v < graph.v:
        raise ValueError(f"vertex {v} out of range")
    if length < 3:
        raise ValueError("closed walks need length at least 3")
    walks = _closed_walks(graph.adjacency(), v, [True] * graph.v, length)
    return [w for w in walks if len(w) == length + 1]


def get_cycles(graph: Graph) -> list[Cycle]:
    """Enumerate every simple cycle exactly once.

    Each cycle is found from its minimum vertex only (the search never walks
    below the anchor), and the two orientations are identified by keeping the
    walk whose second vertex is smaller than its second-to-last. Vertices of
    degree <= 1 are pruned iteratively first since they lie on no cycle.
    """
    adj = graph.adjacency()
    alive = [True] * graph.v
    deg = [len(adj[u]) for u in range(graph.v)]
    stack = [u for u in range(graph.v) if deg[u] <= 1]
    while stack:
        u = stack.pop()
        if not alive[u]:
            continue
        alive[u] = False
        for w in adj[u]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] <= 1:
                    stack.append(w)

    eindex = graph.edge_index()
    m = len(graph.edges)
    cycles = []
    for anchor in range(graph.v):
        if not alive[anchor]:
            continue
        for seq in _closed_walks(adj, anchor, alive, graph.v):
            if seq[1] < seq[-2]:
                # a cycle passes each of its edges once, so the sum is the union
                mask = sum(1 << eindex[(u, w) if u < w else (w, u)] for u, w in zip(seq, seq[1:]))
                cycles.append(Cycle(GroundSubset(mask, m), seq))
    cycles.sort(key=lambda c: (len(c.vertex_sequence), c.vertex_sequence))
    return cycles


def component_count(graph: Graph) -> int:
    """Number of connected components, isolated vertices included."""
    return len(classes(graph.v, graph.edges))
