"""Acceptance criteria: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (a failing criterion shows up as an ordinary pytest failure).
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from matroidkit import (
    ExactMatrix,
    GroundSubset,
    Matroid,
    chow_hilbert,
    chow_presentation,
    chromatic_polynomial,
    complete_graph,
    components,
    contraction,
    deletion,
    direct_sum,
    dual,
    generalized_petersen,
    get_cycles,
    graphic_matroid,
    greedy,
    has_minor,
    isomorphism,
    linear_matroid,
    matroid_from_circuits,
    matroid_from_nonbases,
    minor,
    polytope_vertices,
    specific_matroid,
    tutte_evaluate,
    tutte_polynomial,
    uniform_matroid,
    UnivarPoly,
)
from matroidkit.construct import FANO_NONBASES
from matroidkit.search import apply_permutation
from matroidkit.subsets import iter_bits
from oracles import brute_max_basis_weight, random_linear_matroid, random_matroid

_elapsed_total: list[float] = []


@contextmanager
def criterion(num: str, budget: float, description: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    _elapsed_total.append(elapsed)
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS {num:>3}: {description} ({elapsed:.2f}s)")


def running_example() -> Matroid:
    return Matroid(4, [[0, 1], [0, 2]], labels=["a", "b", "c", "d"])


def indices(subsets):
    return {s.indices() for s in subsets}


def test_criterion_01_running_example_suite():
    with criterion("1", 1.0, "running-example query suite"):
        m = running_example()
        assert m.rank == 2
        assert m.rank_of([0, 3]) == 1
        assert indices(m.circuits()) == {(1, 2), (3,)}
        assert indices(m.independents(2)) == {(0, 1), (0, 2)}
        assert m.loops().indices() == (3,)
        assert m.coloops().indices() == (0,)
        assert m.closure([2, 3]).indices() == (1, 2, 3)
        assert indices(m.hyperplanes()) == {(0, 3), (1, 2, 3)}
        assert [indices(level) for level in m.flats()] == [
            {(3,)},
            {(0, 3), (1, 2, 3)},
            {(0, 1, 2, 3)},
        ]
        assert m.fvector() == [1, 2, 1]
        d = dual(m)
        assert indices(d.bases) == {(2, 3), (1, 3)}
        assert dual(d) == m
        assert d.loops().indices() == (0,)
        assert indices(d.circuits()) == {(1, 2), (0,)}
        n1 = deletion(m, [3])
        assert n1.labels == ("a", "b", "c") and indices(n1.bases) == {(0, 1), (0, 2)}
        n2 = contraction(m, [1])
        assert n2.labels == ("a", "c", "d") and indices(n2.bases) == {(0,)}


def test_criterion_02_validity():
    with criterion("2", 1.0, "exchange-axiom validity check"):
        assert running_example().is_valid()
        assert not Matroid(4, [[0, 1], [2, 3]]).is_valid()


def test_criterion_03_uniform():
    with criterion("3", 1.0, "uniform matroid U(2,4) bases"):
        assert indices(uniform_matroid(2, 4).bases) == {
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
        }


def test_criterion_04_linear_matroid_isomorphism():
    with criterion("4", 1.0, "rational matrix matroid isomorphic to the example"):
        a = ExactMatrix([[0, 4, -1, 6], [0, Fraction(2, 3), 7, 1]])
        ma = linear_matroid(a)
        m = running_example()
        witness = isomorphism(ma, m)
        assert witness is not None
        mapped = {apply_permutation(b, witness.perm) for b in ma.basis_masks}
        assert mapped == set(m.basis_masks)


def test_criterion_05_cycle_enumeration():
    with criterion("5a", 5.0, "57 cycles in the (5,2) generalized Petersen graph"):
        assert len(get_cycles(generalized_petersen(5, 2))) == 57
    with criterion("5b", 60.0, "8018 cycles in K8"):
        assert len(get_cycles(complete_graph(8))) == 8018


def test_criterion_06_graphic_matroids():
    with criterion("6", 5.0, "spanning-tree counts of K5 and K4"):
        assert len(graphic_matroid(complete_graph(5)).bases) == 125
        assert len(graphic_matroid(complete_graph(4)).bases) == 16


def test_criterion_07_fano():
    with criterion("7", 1.0, "Fano matroid from its nonbases"):
        assert len(matroid_from_nonbases(7, FANO_NONBASES, 3).bases) == 28


def test_criterion_08_circuit_entry_roundtrip():
    with criterion("8", 1.0, "circuit-entry reconstruction equals the example"):
        rebuilt = matroid_from_circuits(4, [[1, 2], [3]])
        assert rebuilt == running_example() and rebuilt.rank == 2


def test_criterion_09_direct_sum_components():
    with criterion("9", 1.0, "direct sum size and components round trip"):
        s = direct_sum(uniform_matroid(2, 4), graphic_matroid(complete_graph(3)))
        assert s.n == 7
        parts = components(s)
        assert direct_sum(parts[0], parts[1]) == s


def test_criterion_10_minor():
    with criterion("10", 5.0, "minor of M(K5) equals M(K4)"):
        m5 = graphic_matroid(complete_graph(5))
        mm = minor(m5, [9], [3, 5, 8])
        assert mm.n == 6 and len(mm.bases) == 16
        assert mm == graphic_matroid(complete_graph(4))


def test_criterion_11_minor_search():
    with criterion("11", 600.0, "minor searches: three exclusions plus one witness"):
        m5 = graphic_matroid(complete_graph(5))
        fano = specific_matroid("fano")
        assert has_minor(m5, uniform_matroid(2, 4)) is None
        assert has_minor(m5, fano) is None
        assert has_minor(m5, dual(fano)) is None
        m4 = graphic_matroid(complete_graph(4))
        witness = has_minor(m5, m4)
        assert witness is not None
        reduced = minor(m5, witness.contract, witness.delete)
        mapped = {apply_permutation(b, witness.iso.perm) for b in reduced.basis_masks}
        assert mapped == set(m4.basis_masks)


def test_criterion_12_tutte():
    with criterion("12", 60.0, "Tutte polynomial of M(K5): coefficients and values"):
        m5 = graphic_matroid(complete_graph(5))
        t = tutte_polynomial(m5)
        visible = {
            (0, 6): 1, (0, 5): 4, (4, 0): 1, (1, 3): 5, (0, 4): 10, (3, 0): 6,
            (2, 1): 10, (1, 2): 15, (0, 3): 15, (2, 0): 11, (1, 1): 20, (0, 2): 15,
        }
        for (i, j), c in visible.items():
            assert t.coeff(i, j) == c, f"coefficient of x^{i} y^{j}"
        assert tutte_evaluate(m5, 1, 1) == 125
        assert tutte_evaluate(m5, 2, 1) == 291
        assert tutte_evaluate(m5, 2, 0) == 120


def test_criterion_13_chromatic():
    with criterion("13", 5.0, "chromatic polynomial of K5 factors as expected"):
        p = chromatic_polynomial(complete_graph(5))
        expected = UnivarPoly((0, 1))
        for r in (1, 2, 3, 4):
            expected = expected * UnivarPoly((-r, 1))
        assert p == expected


def test_criterion_14_greedy():
    with criterion("14", 1.0, "greedy maximum-weight basis on the Fano matroid"):
        weights = [0, math.log(2), Fraction(4, 3), 1, -4, 2, math.pi]
        assert greedy(specific_matroid("fano"), weights) == [6, 5, 3]


def test_criterion_15_polytope():
    with criterion("15", 1.0, "basis polytope of M(K4)"):
        data = polytope_vertices(graphic_matroid(complete_graph(4)))
        assert data.ambient_dim == 6
        assert len(data.vertices) == 16
        assert data.dim == 5


def test_criterion_16_vamos():
    with criterion("16a", 30.0, "Vamos signature (8, 65, 4, 79)"):
        v = specific_matroid("vamos")
        assert (v.n, len(v.bases), v.rank, sum(v.fvector())) == (8, 65, 4, 79)
    with criterion("16b", 600.0, "Vamos graded algebra: 77 variables, Hilbert 1,70,70,1"):
        v = specific_matroid("vamos")
        assert len(chow_presentation(v).flats) == 77
        assert [chow_hilbert(v, d) for d in range(4)] == [1, 70, 70, 1]


# -- criterion 17: randomized property suites, 200 instances each ------------------

INSTANCES = 200


def _collect(rng, make, accept, count=INSTANCES):
    out = []
    while len(out) < count:
        candidate = make(rng)
        if accept(candidate):
            out.append(candidate)
    return out


def test_criterion_17a_exchange_axiom():
    with criterion("17a", 600.0, f"exchange axiom on {INSTANCES} random linear matroids"):
        rng = Random(101)
        for _ in range(INSTANCES):
            assert random_linear_matroid(rng, max_n=8).is_valid()


def test_criterion_17b_rank_submodularity():
    with criterion("17b", 600.0, f"rank submodularity on {INSTANCES} instances"):
        rng = Random(102)
        for _ in range(INSTANCES):
            m = random_matroid(rng, max_n=8)
            s = rng.getrandbits(m.n) if m.n else 0
            t = rng.getrandbits(m.n) if m.n else 0
            rs = m._rank_of_mask(s)
            rt = m._rank_of_mask(t)
            assert 0 <= rs <= s.bit_count()
            assert m._rank_of_mask(s) <= m._rank_of_mask(s | t)  # monotone
            assert m._rank_of_mask(s | t) + m._rank_of_mask(s & t) <= rs + rt


def test_criterion_17c_closure_idempotence():
    with criterion("17c", 600.0, f"closure idempotence on {INSTANCES} instances"):
        rng = Random(103)
        for _ in range(INSTANCES):
            m = random_matroid(rng, max_n=8)
            s = GroundSubset(rng.getrandbits(m.n) if m.n else 0, m.n)
            cl = m.closure(s)
            assert s.issubset(cl)
            assert m.closure(cl) == cl


def test_criterion_17d_circuit_elimination():
    with criterion("17d", 600.0, f"circuit elimination on {INSTANCES} instances"):
        rng = Random(104)
        done = 0
        while done < INSTANCES:
            m = random_matroid(rng, max_n=8)
            circuits = [c.bits for c in m.circuits()]
            if len(circuits) < 2:
                continue
            circuit_set = set(circuits)
            for i, c1 in enumerate(circuits):
                for c2 in circuits[i + 1 :]:
                    for e in iter_bits(c1 & c2):
                        window = (c1 | c2) ^ (1 << e)
                        assert any(c & ~window == 0 for c in circuit_set)
            done += 1


def test_criterion_17e_deletion_contraction_count():
    with criterion("17e", 600.0, f"basis-count recurrence on {INSTANCES} instances"):
        rng = Random(105)

        def has_free_element(m):
            return (m.loops().bits | m.coloops().bits) != (1 << m.n) - 1

        for m in _collect(rng, lambda r: random_matroid(r, max_n=8), has_free_element):
            skip = m.loops().bits | m.coloops().bits
            for e in range(m.n):
                if skip >> e & 1:
                    continue
                total = len(deletion(m, [e]).bases) + len(contraction(m, [e]).bases)
                assert total == len(m.bases)


def test_criterion_17f_tutte_counts():
    with criterion("17f", 600.0, f"T(1,1) and T(2,2) on {INSTANCES} instances"):
        rng = Random(106)
        for _ in range(INSTANCES):
            m = random_matroid(rng, max_n=8)
            t = tutte_polynomial(m)
            assert t.evaluate(1, 1) == len(m.bases)
            assert t.evaluate(2, 2) == 2**m.n


def test_criterion_17g_tutte_duality():
    with criterion("17g", 600.0, f"dual Tutte swap on {INSTANCES} instances"):
        rng = Random(107)
        for _ in range(INSTANCES):
            m = random_matroid(rng, max_n=8)
            t = tutte_polynomial(m)
            td = tutte_polynomial(dual(m))
            assert {(j, i): c for (i, j), c in t.terms().items()} == td.terms()


def test_criterion_17h_greedy_optimality():
    with criterion("17h", 600.0, f"greedy optimality on {INSTANCES} instances"):
        rng = Random(108)
        for m in _collect(
            rng, lambda r: random_matroid(r, max_n=8), lambda m: len(m.bases) <= 20
        ):
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m.n)]
            picked = greedy(m, weights)
            assert sum(weights[e] for e in picked) == brute_max_basis_weight(m, weights)


def test_criterion_17i_chow_symmetry():
    with criterion("17i", 600.0, f"Hilbert symmetry on {INSTANCES} loopless instances"):
        rng = Random(109)

        def make(r):
            m = random_matroid(r, max_n=6)
            loops = m.loops()
            return deletion(m, loops) if len(loops) else m

        for m in _collect(rng, make, lambda m: m.n > 0 and m.rank >= 1):
            values = [chow_hilbert(m, d) for d in range(m.rank)]
            assert values == values[::-1]


def test_criterion_17_combined_budget():
    # criteria 11, 16b, and 17a-17i all share 10-minute budgets; the sum of
    # everything above must stay comfortably inside a single run
    assert sum(_elapsed_total) < 1800
