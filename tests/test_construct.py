import importlib
import time
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path
from random import Random

import pytest

from matroidkit import (
    ExactMatrix,
    GroundSubset,
    Matroid,
    complete_graph,
    components,
    direct_sum,
    generalized_petersen,
    get_cycles,
    graph_from_edges,
    graphic_matroid,
    linear_matroid,
    matroid_from_circuits,
    matroid_from_nonbases,
    specific_matroid,
    uniform_matroid,
)
from matroidkit.construct import FANO_NONBASES, _parts
from matroidkit.subsets import iter_bits
from matroidkit.transform import restriction
from oracles import (
    brute_circuits,
    brute_components,
    brute_graphic_bases,
    brute_linear_bases,
    brute_is_valid,
    brute_matrix_rank,
    circuit_family,
    glued_graphs,
    is_independent,
    random_matroid,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def indices(subsets):
    return {s.indices() for s in subsets}


def test_uniform_matroid(u24):
    assert indices(u24.bases) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}
    assert indices(uniform_matroid(0, 3).bases) == {()}
    assert indices(uniform_matroid(3, 3).bases) == {(0, 1, 2)}
    with pytest.raises(ValueError):
        uniform_matroid(4, 3)
    for n in range(11):
        for r in range(n + 1):
            masks = [sum(1 << e for e in c) for c in combinations(range(n), r)]
            assert uniform_matroid(r, n).basis_masks == tuple(sorted(masks))


def test_linear_matroid_rational():
    a = ExactMatrix([[0, 4, -1, 6], [0, Fraction(2, 3), 7, 1]])
    m = linear_matroid(a)
    # columns 1 and 3 are parallel, column 0 is a loop (2x2 minor determinants)
    assert indices(m.bases) == {(1, 2), (2, 3)}
    assert m.loops().indices() == (0,)
    assert m.labels == ("(0, 0)", "(4, 2/3)", "(-1, 7)", "(6, 1)")


def test_linear_matroid_identity_gf2():
    eye = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], field=2)
    assert linear_matroid(eye) == uniform_matroid(3, 3)


def test_linear_matroid_zero():
    z = ExactMatrix([[0, 0]])
    m = linear_matroid(z)
    assert m.rank == 0 and indices(m.bases) == {()}
    assert m.loops().indices() == (0, 1)


def test_linear_matroid_rref_invariant():
    """Row swaps, nonzero scalings and row additions, the steps of row
    reduction, leave the column matroid unchanged over Q and over GF(3)."""
    rng = Random(5)
    for field, scales in ((None, [-1, 2, Fraction(-3, 2), Fraction(1, 3)]), (3, [1, 2, -1])):
        grids = [[[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 1, 1]]]
        for _ in range(30):
            nrows, ncols = rng.randint(2, 4), rng.randint(3, 7)
            grids.append([[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)])
        for grid in grids:
            want = linear_matroid(ExactMatrix(grid, field=field))
            for _ in range(4):
                i, j = rng.sample(range(len(grid)), 2)
                c = rng.choice(scales)
                grid[i], grid[j] = grid[j], grid[i]
                grid[i] = [c * e for e in grid[i]]
                grid[j] = [a + c * b for a, b in zip(grid[j], grid[i])]
                assert linear_matroid(ExactMatrix(grid, field=field)) == want


@pytest.mark.parametrize("p", (None, 2, 3, 7))
def test_linear_matroid_matches_subset_oracle(p):
    """Seeded matrices, some with zero columns, parallel columns, no nonzero
    entry, or no rows at all; over the rationals also Fractions and large
    numerators, which the fraction-free elimination scales and cross-multiplies."""
    rng = Random(300 + (p or 0))
    pool = [0, 1, -1, 2, -3, 5, 14]
    if p is None:
        pool += [Fraction(2, 3), Fraction(-5, 7), 10**12 + 39, -(10**15), Fraction(10**13, -9)]

    def zero(x):
        return (x % p if p else x) == 0

    seen = set()
    for _ in range(150):
        nrows, ncols = rng.randint(0, 4), rng.randint(0, 8)
        grid = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        if ncols and rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in grid:
                row[j] = 0
        if ncols > 1 and rng.random() < 0.3:
            j, k = rng.sample(range(ncols), 2)
            c = rng.choice([-2, 1, 3])
            for row in grid:
                row[k] = c * row[j]
        if rng.random() < 0.05:
            grid = [[0] * ncols for _ in range(nrows)]
        m = linear_matroid(ExactMatrix(grid, field=p, cols=ncols))
        assert set(m.basis_masks) == brute_linear_bases(grid, ncols, p)
        columns = [[row[j] for row in grid] for j in range(ncols)]
        nonzero = [col for col in columns if not all(map(zero, col))]
        if nrows == 0:
            seen.add("no rows")
        elif ncols and not nonzero:
            seen.add("zero matrix")
        elif len(nonzero) < ncols:
            seen.add("zero column")
        if any(brute_matrix_rank([a, b], p) == 1 for a, b in combinations(nonzero, 2)):
            seen.add("parallel columns")
    assert seen == {"no rows", "zero matrix", "zero column", "parallel columns"}


@pytest.mark.parametrize("p", (None, 2, 3, 7))
def test_linear_matroid_of_tall_and_rank_deficient_matrices(p):
    """The bases are grown on the columns of the echelon rows, so rows past
    the rank, repeated and combined rows, zero rows, and matrices with no
    rows or no columns must all give the subset oracle's bases."""
    rng = Random(35 + (p or 0))
    pool = [0, 1, -1, 2, 3] + ([Fraction(-2, 3), 10**12 + 39] if p is None else [])
    seen = set()
    for _ in range(120):
        ncols, rank = rng.randint(0, 7), rng.randint(0, 4)
        top = [[rng.choice(pool) for _ in range(ncols)] for _ in range(rank)]
        grid = top + [
            [sum(c * row[j] for c, row in zip(coeffs, top)) for j in range(ncols)]
            for coeffs in ([rng.choice(pool) for _ in top] for _ in range(rng.randint(0, 4)))
        ]
        rng.shuffle(grid)
        m = linear_matroid(ExactMatrix(grid, field=p, cols=ncols))
        assert set(m.basis_masks) == brute_linear_bases(grid, ncols, p)
        r = brute_matrix_rank(grid, p)
        if not grid:
            seen.add("no rows")
        elif not ncols:
            seen.add("no columns")
        elif len(grid) > r and r < min(len(grid), ncols):
            seen.add("tall and rank deficient")
        if any(not any(row) for row in grid) and ncols:
            seen.add("zero row")
    assert seen == {"no rows", "no columns", "tall and rank deficient", "zero row"}


def seeded_graphs(count=200):
    """Graphs on up to 7 vertices with at most 12 edges, of every density."""
    rng = Random(23)
    for _ in range(count):
        v = rng.randint(0, 7)
        density = rng.random()
        edges = [e for e in combinations(range(v), 2) if rng.random() < density]
        rng.shuffle(edges)
        yield graph_from_edges(v, edges[:12])


def test_graphic_matroid_matches_forest_oracle():
    """Dense and sparse seeded graphs, and graphs glued at cut vertices from
    blocks and bridges. A simple Graph has no parallel edges: graph_from_edges
    drops a repeated edge."""
    seen = set()
    for g in list(seeded_graphs()) + list(glued_graphs()):
        m = graphic_matroid(g)
        assert set(m.basis_masks) == brute_graphic_bases(g)
        touched = {u for e in g.edges for u in e}
        if not g.edges:
            seen.add("no edges")
            continue
        if len(touched) < g.v:
            seen.add("isolated vertices")
        if m.rank < len(touched) - 1:  # two or more components with edges
            seen.add("disconnected")
        if m.rank == len(g.edges):
            assert m.coloops().bits == (1 << m.n) - 1
            seen.add("forest")
        elif m.coloops().bits:
            seen.add("bridge and cycle")
        blocks = [p for p in brute_components(m) if p & p - 1]
        spans = [{u for e in iter_bits(p) for u in g.edges[e]} for p in blocks]
        if any(a & b for a, b in combinations(spans, 2)):
            seen.add("cut vertex between blocks")
    assert seen == {
        "no edges",
        "isolated vertices",
        "disconnected",
        "forest",
        "bridge and cycle",
        "cut vertex between blocks",
    }


def test_cactus_basis_count_is_the_product_of_its_cycle_lengths(monkeypatch):
    """A spanning tree of a cactus keeps every bridge and drops one edge of
    each cycle, so the graphic matroid of the benchmark's cactus graphs has
    prod(lengths) bases, each bridge a coloop and each cycle a circuit."""
    monkeypatch.syspath_prepend(str(BENCH))
    cactus = importlib.import_module("inputs").cactus
    rng = Random(41)
    for _ in range(40):
        lengths = [rng.randint(3, 6) for _ in range(rng.randint(0, 4))]
        v, edges, cycles, bridge_mask = cactus(rng, lengths, rng.randint(0, 4))
        m = graphic_matroid(graph_from_edges(v, edges))
        assert len(m.basis_masks) == prod(lengths)
        assert m.coloops().bits == bridge_mask
        assert {c.bits for c in m.circuits()} == set(cycles)


def test_graphic_circuits_are_the_cycles():
    graphs = list(seeded_graphs(60)) + [complete_graph(5), generalized_petersen(5, 2)]
    for g in graphs:
        circuits = {c.bits for c in graphic_matroid(g).circuits()}
        assert circuits == {c.edge_indices.bits for c in get_cycles(g)}


def test_graphic_matroid_counts(m5, m4):
    assert len(m5.bases) == 125  # Cayley: 5^3 spanning trees
    assert len(m4.bases) == 16
    assert m5.labels[0] == "{0, 1}"


def test_graphic_matroid_cayley():
    for n in (2, 3, 4, 5, 6, 7):
        assert len(graphic_matroid(complete_graph(n)).bases) == n ** (n - 2)


def test_graphic_matroid_tree():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    m = graphic_matroid(path)
    assert len(m.bases) == 1 and m.coloops().indices() == (0, 1)


def test_rank_above_the_recursion_limit():
    """The basis search keeps its own stack, so a rank above Python's default
    recursion limit of 1000 builds."""
    path = graph_from_edges(1101, [(i, i + 1) for i in range(1100)])
    m = graphic_matroid(path)
    assert m.rank == 1100 and m.basis_masks == ((1 << 1100) - 1,)


def test_matroid_from_circuits(running_example):
    m1 = matroid_from_circuits(4, [[1, 2], [3]])
    assert m1 == running_example and m1.rank == 2
    assert matroid_from_circuits(3, []) == uniform_matroid(3, 3)
    all_triples = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    assert matroid_from_circuits(4, all_triples) == uniform_matroid(2, 4)


def test_matroid_from_circuits_reduces_to_minimal(running_example):
    # {1,2,3} contains the circuit {3} and must be discarded
    assert matroid_from_circuits(4, [[1, 2], [3], [1, 2, 3]]) == running_example


def test_matroid_from_circuits_errors():
    # the circuits fix the rank; there is no rank to ask for
    assert matroid_from_circuits(4, [[1, 2], [3]]).rank == 2
    with pytest.raises(ValueError):
        matroid_from_circuits(4, [[]])


def test_matroid_from_circuits_refuses_families_that_are_not_circuits():
    """Without the check, {01, 02} gave bases {12, 03, 13, 23}, which fail
    basis exchange; {012, 013} gave U(2, 4), whose circuits are all four
    triples; and {01, 12} made 1 a loop."""
    for n, family in ((4, [[0, 1], [0, 2]]), (4, [[0, 1, 2], [0, 1, 3]]), (3, [[0, 1], [1, 2]])):
        with pytest.raises(ValueError, match="not the circuits of a matroid"):
            matroid_from_circuits(n, family)


def test_matroid_from_circuits_matches_the_circuit_axioms():
    """Seeded random families: the constructor answers exactly when the
    minimal members satisfy circuit elimination, and then with a valid
    matroid whose powerset circuits are those members."""
    rng = Random(9)
    built = refused = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        draws = (sum(1 << e for e in range(n) if rng.random() < 0.4) for _ in range(rng.randint(0, 6)))
        family = [m for m in draws if m]
        expected = circuit_family(family)
        sets = [list(iter_bits(c)) for c in family]
        if expected is None:
            with pytest.raises(ValueError):
                matroid_from_circuits(n, sets)
            refused += 1
            continue
        m = matroid_from_circuits(n, sets)
        assert brute_is_valid(m) and brute_circuits(m) == expected
        built += 1
    assert built > 250 and refused > 50


def test_matroid_from_nonbases():
    fano = matroid_from_nonbases(7, FANO_NONBASES, 3)
    assert len(fano.bases) == 28
    assert matroid_from_nonbases(4, [], 2) == uniform_matroid(2, 4)
    with pytest.raises(ValueError):
        matroid_from_nonbases(4, [[0, 1, 2]], 2)
    with pytest.raises(ValueError):
        matroid_from_nonbases(2, [[0], [1]], 1)
    for rank in (-1, 5):
        with pytest.raises(ValueError):
            matroid_from_nonbases(4, [], rank)
    for n in range(11):
        for r in range(n + 1):
            combos = list(combinations(range(n), r))
            kept = [sum(1 << e for e in c) for c in combos[0::3] + combos[2::3]]
            assert matroid_from_nonbases(n, combos[1::3], r).basis_masks == tuple(sorted(kept))


def test_specific_matroids(fano, vamos):
    assert len(fano.bases) == 28 and fano.rank == 3
    assert (vamos.n, len(vamos.bases), vamos.rank, sum(vamos.fvector())) == (8, 65, 4, 79)
    with pytest.raises(ValueError):
        specific_matroid("petersen")


def test_direct_sum(u24):
    k3 = graphic_matroid(complete_graph(3))
    s = direct_sum(u24, k3)
    assert s.n == 7 and s.rank == 4
    assert len(s.bases) == len(u24.bases) * len(k3.bases)
    assert s.labels[0] == "(0, 0)" and s.labels[4] == "({0, 1}, 1)"


def test_direct_sum_identity(running_example):
    s = direct_sum(running_example, uniform_matroid(0, 0))
    assert s == running_example  # equality ignores labels


def test_direct_sum_rank_and_circuits(running_example, u24):
    s = direct_sum(u24, running_example)
    assert s.rank == u24.rank + running_example.rank
    shifted = {
        tuple(e + u24.n for e in c.indices()) for c in running_example.circuits()
    }
    expected = {c.indices() for c in u24.circuits()} | shifted
    assert {c.indices() for c in s.circuits()} == expected


def test_components_roundtrip(u24):
    s = direct_sum(u24, graphic_matroid(complete_graph(3)))
    parts = components(s)
    assert len(parts) == 2
    assert direct_sum(parts[0], parts[1]) == s


def test_components_connected(u24):
    assert len(components(u24)) == 1


def test_components_free_matroid():
    parts = components(uniform_matroid(3, 3))
    assert len(parts) == 3
    assert all(p.n == 1 and p.rank == 1 for p in parts)


def test_components_rank_additivity(running_example):
    parts = components(running_example)
    assert sum(p.rank for p in parts) == running_example.rank


def test_components_fold_random_sums():
    from functools import reduce
    from random import Random

    rng = Random(41)
    connected_pool = [
        uniform_matroid(1, 1),
        uniform_matroid(1, 2),
        uniform_matroid(2, 3),
        uniform_matroid(2, 4),
        graphic_matroid(complete_graph(3)),
    ]
    for _ in range(25):
        pieces = [rng.choice(connected_pool) for _ in range(rng.randint(2, 3))]
        total = reduce(direct_sum, pieces)
        parts = components(total)
        assert len(parts) == len(pieces)
        assert reduce(direct_sum, parts) == total


def test_components_match_brute_force():
    # seeded sums of two or three random pieces, with loops and coloops
    rng = Random(61)
    sums = []
    for _ in range(60):
        total = random_matroid(rng, max_n=4)
        for _ in range(rng.randint(1, 2)):
            total = direct_sum(total, random_matroid(rng, max_n=3))
        # index labels, so that each part names the elements it holds
        sums.append(Matroid._from_masks(total.n, total.basis_masks, map(str, range(total.n))))
    assert any(not is_independent(m, 1 << e) for m in sums for e in range(m.n))
    assert any(all(b >> e & 1 for b in m.basis_masks) for m in sums for e in range(m.n))
    assert any(len(brute_components(m)) > 2 for m in sums)
    for m in sums:
        parts = components(m)
        want = brute_components(m)
        assert [sum(1 << int(x) for x in p.labels) for p in parts] == want
        assert parts == [restriction(m, GroundSubset(w, m.n)) for w in want]


def test_components_match_brute_force_on_random_matroids():
    """The partition of seeded random matroids, loops and coloops included,
    against the circuit-closure oracle, with each part the restriction to it."""
    rng = Random(83)
    pool = [random_matroid(rng) for _ in range(300)]
    assert sum(len(brute_components(m)) > 1 for m in pool) > 100
    for m in pool:
        want = brute_components(m)
        assert _parts(m) == want
        assert components(m) == [restriction(m, GroundSubset(w, m.n)) for w in want]


def test_wide_ground_set_components():
    # one triangle and 4,093 loops
    m = Matroid(4096, [[0, 1], [0, 2], [1, 2]], labels=[str(e) for e in range(4096)])
    start = time.perf_counter()
    parts = components(m)
    assert time.perf_counter() - start < 2
    assert len(parts) == 4094
    assert [p.labels for p in parts] == [("0", "1", "2")] + [(str(e),) for e in range(3, 4096)]
    assert [p.rank for p in parts] == [2] + [0] * 4093
