import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from matroidkit import (
    closed_walks,
    complete_graph,
    component_count,
    generalized_petersen,
    get_cycles,
    graph_from_edges,
    graphic_matroid,
)
from matroidkit.construct import _parts
from matroidkit.graphs import _blocks
from oracles import _count_components, brute_cycle_count, glued_graphs, random_graph


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


def block_chain(k: int, copies: int):
    """copies of K_k in a row, each sharing its first vertex with the last
    vertex of the one before, so every shared vertex is a cut vertex."""
    step = k - 1
    pairs = list(combinations(range(k), 2))
    return graph_from_edges(step * copies + 1, [(i * step + a, i * step + b) for i in range(copies) for a, b in pairs])


def test_cycles_of_block_chains_within_budget():
    """Each block is searched with only its own vertices alive, so a chain of
    blocks costs the sum of its blocks: no walk crosses a cut vertex into a
    later block. 40 triangles give 40 cycles, six K5s 6 * 37."""
    triangles = block_chain(3, 40)
    doc = {"format": "graph-v1", "v": triangles.v, "edges": [list(e) for e in triangles.edges]}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "matroidkit.cli", "cycles", "-"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["count"] == 40
    assert len(get_cycles(triangles)) == 40
    assert len(get_cycles(block_chain(5, 6))) == 222


def test_blocks_are_the_components_of_the_graphic_matroid():
    """Two derivations of the blocks: forest paths in the graph, and basis
    exchanges in its graphic matroid (Krogdahl's fundamental graph). A merged
    block shows here; a split one would give wrong bases, which the forest
    oracle in test_construct catches."""
    graphs = list(glued_graphs(200))
    blocks = [_blocks(g) for g in graphs]
    assert blocks == [_parts(graphic_matroid(g)) for g in graphs]
    assert sum(1 for bs in blocks if any(b & b - 1 == 0 for b in bs)) > 60  # a bridge
    assert sum(1 for bs in blocks if sum(b & b - 1 > 0 for b in bs) > 1) > 100  # two blocks with cycles
    assert sum(1 for g in graphs if len({u for e in g.edges for u in e}) < g.v) > 100  # isolated


def test_cycles_are_the_circuits_of_the_graphic_matroid():
    """Multi-block graphs beyond the n <= 8 that the brute-force cycle count reaches."""
    graphs = [g for g in glued_graphs(60, max_edges=24) if len(g.edges) > 12 and len(_blocks(g)) > 1]
    assert len(graphs) > 30
    for g in graphs:
        assert sorted(c.edge_indices.bits for c in get_cycles(g)) == sorted(
            c.bits for c in graphic_matroid(g).circuits()
        )
