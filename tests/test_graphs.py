from itertools import combinations
from random import Random

import pytest

from matroidkit import (
    closed_walks,
    complete_graph,
    component_count,
    generalized_petersen,
    get_cycles,
    graph_from_edges,
)
from oracles import _count_components, brute_cycle_count, random_graph


def triangle():
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_graph_from_edges_normalizes():
    g = graph_from_edges(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_graph_from_edges_errors():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        graph_from_edges(-1, [])


def test_complete_graph():
    k5 = complete_graph(5)
    assert k5.v == 5 and len(k5.edges) == 10
    adj = k5.adjacency()
    assert all(sorted(adj[u]) == [w for w in range(5) if w != u] for u in range(5))
    k1 = complete_graph(1)
    assert k1.v == 1 and k1.edges == ()
    with pytest.raises(ValueError):
        complete_graph(0)


def test_generalized_petersen():
    gp = generalized_petersen(5, 2)
    assert gp.v == 10 and len(gp.edges) == 15
    with pytest.raises(ValueError):
        generalized_petersen(2, 1)
    with pytest.raises(ValueError):
        generalized_petersen(6, 3)
    with pytest.raises(ValueError):
        generalized_petersen(5, 0)


def test_closed_walks_triangle():
    assert len(closed_walks(triangle(), 0, 3)) == 2
    assert closed_walks(triangle(), 0, 4) == []


def test_closed_walks_k4():
    walks = closed_walks(complete_graph(4), 0, 3)
    assert len(walks) == 6
    assert all(w[0] == 0 and w[-1] == 0 and len(w) == 4 for w in walks)


def test_closed_walks_order():
    """Depth first over the sorted neighbour lists: both orientations of each
    cycle, in the order the search closes them."""
    k4 = complete_graph(4)
    assert closed_walks(k4, 0, 3) == [
        (0, 1, 2, 0), (0, 1, 3, 0), (0, 2, 1, 0), (0, 2, 3, 0), (0, 3, 1, 0), (0, 3, 2, 0),
    ]
    assert closed_walks(k4, 0, 4) == [
        (0, 1, 2, 3, 0), (0, 1, 3, 2, 0), (0, 2, 1, 3, 0),
        (0, 2, 3, 1, 0), (0, 3, 1, 2, 0), (0, 3, 2, 1, 0),
    ]
    assert closed_walks(k4, 1, 3) == [(1, 2, 3, 1), (1, 3, 2, 1)]
    assert closed_walks(k4, 1, 4) == []
    gp = generalized_petersen(5, 2)
    assert closed_walks(gp, 0, 5) == [
        (0, 1, 2, 3, 4, 0), (0, 1, 2, 7, 5, 0), (0, 1, 6, 8, 5, 0), (0, 1, 6, 9, 4, 0),
        (0, 4, 3, 2, 1, 0), (0, 4, 3, 8, 5, 0), (0, 4, 9, 6, 1, 0), (0, 4, 9, 7, 5, 0),
        (0, 5, 7, 2, 1, 0), (0, 5, 7, 9, 4, 0), (0, 5, 8, 3, 4, 0), (0, 5, 8, 6, 1, 0),
    ]
    assert closed_walks(gp, 0, 6) == [
        (0, 1, 2, 3, 8, 5, 0), (0, 1, 2, 7, 9, 4, 0), (0, 1, 6, 8, 3, 4, 0), (0, 1, 6, 9, 7, 5, 0),
        (0, 4, 3, 2, 7, 5, 0), (0, 4, 3, 8, 6, 1, 0), (0, 4, 9, 6, 8, 5, 0), (0, 4, 9, 7, 2, 1, 0),
        (0, 5, 7, 2, 3, 4, 0), (0, 5, 7, 9, 6, 1, 0), (0, 5, 8, 3, 2, 1, 0), (0, 5, 8, 6, 9, 4, 0),
    ]
    assert closed_walks(gp, 0, 7) == []
    assert closed_walks(gp, 5, 5) == [(5, 7, 9, 6, 8, 5), (5, 8, 6, 9, 7, 5)]


def test_closed_walks_errors():
    with pytest.raises(ValueError):
        closed_walks(triangle(), 5, 3)
    with pytest.raises(ValueError):
        closed_walks(triangle(), 0, 2)


def test_get_cycles_counts():
    assert len(get_cycles(triangle())) == 1
    assert len(get_cycles(generalized_petersen(5, 2))) == 57
    tree = graph_from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert get_cycles(tree) == []


def test_cycle_structure():
    for cyc in get_cycles(complete_graph(4)):
        seq = cyc.vertex_sequence
        assert seq[0] == seq[-1] == min(seq)
        assert seq[1] < seq[-2]
        assert len(cyc.edge_indices) == len(seq) - 1
        # every vertex on the cycle has degree exactly 2 in its edge set
        deg: dict[int, int] = {}
        for i in cyc.edge_indices:
            u, w = complete_graph(4).edges[i]
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        assert all(d == 2 for d in deg.values())


def test_cycles_unique_and_sorted():
    cycles = get_cycles(complete_graph(5))
    masks = [c.edge_indices.bits for c in cycles]
    assert len(masks) == len(set(masks))
    keys = [(len(c.vertex_sequence), c.vertex_sequence) for c in cycles]
    assert keys == sorted(keys)


def test_cycle_count_matches_brute_force():
    rng = Random(7)
    for _ in range(30):
        g = random_graph(rng, max_v=5)
        if len(g.edges) <= 8:
            assert len(get_cycles(g)) == brute_cycle_count(g)


def test_walks_are_two_per_anchored_cycle():
    g = complete_graph(5)
    for v in range(g.v):
        anchored = [
            c
            for c in get_cycles(g)
            if min(c.vertex_sequence) == v
        ]
        by_len: dict[int, int] = {}
        for c in anchored:
            by_len[len(c.vertex_sequence) - 1] = by_len.get(len(c.vertex_sequence) - 1, 0) + 1
        for length, cnt in by_len.items():
            assert len(closed_walks(g, v, length)) == 2 * cnt


def test_component_count():
    assert component_count(complete_graph(5)) == 1
    g = graph_from_edges(5, [(0, 1), (2, 3)])
    assert component_count(g) == 3


def test_component_count_matches_the_search_oracle():
    """Seeded sparse graphs, most with isolated vertices, against depth-first search."""
    rng = Random(17)
    graphs = []
    for _ in range(200):
        v = rng.randint(0, 14)
        edges = [e for e in combinations(range(v), 2) if rng.random() < 0.12]
        graphs.append(graph_from_edges(v, edges))
    assert sum(1 for g in graphs if len({u for e in g.edges for u in e}) < g.v) > 100
    for g in graphs:
        assert component_count(g) == _count_components(g.v, g.edges)
