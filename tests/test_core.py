import importlib
import time
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest

from matroidkit import GroundSubset, Matroid, complete_graph, dual, graphic_matroid, uniform_matroid
from matroidkit.subsets import canon_key
from oracles import (
    brute_circuits,
    brute_closure,
    brute_flats_by_rank,
    brute_is_valid,
    brute_rank,
    closure_flats_by_level,
    invalid_families,
    is_independent,
    random_matroid,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def indices(subsets):
    return {s.indices() for s in subsets}


def seeded_matroids(seed: int, count: int = 40) -> list[Matroid]:
    """Seeded `random_matroid`s on at most 7 elements, some with loops and
    some with coloops."""
    rng = Random(seed)
    ms = [random_matroid(rng, max_n=7) for _ in range(count)]
    assert any(not is_independent(m, 1 << e) for m in ms for e in range(m.n))
    assert any(all(b >> e & 1 for b in m.basis_masks) for m in ms for e in range(m.n))
    return ms


# -- construction ------------------------------------------------------------------


def test_make_matroid(running_example):
    m = running_example
    assert m.n == 4 and m.rank == 2 and len(m.bases) == 2
    assert indices(m.bases) == {(0, 1), (0, 2)}


def test_single_coloop():
    m = Matroid(1, [[0]])
    assert m.rank == 1 and m.coloops().indices() == (0,)


def test_construction_defers_exchange_check():
    # builds fine even though the family fails exchange
    m = Matroid(4, [[0, 1], [2, 3]])
    assert len(m.bases) == 2
    assert not m.is_valid()


def test_construction_errors():
    with pytest.raises(ValueError):
        Matroid(4, [])
    with pytest.raises(ValueError):
        Matroid(4, [[0, 4]])
    with pytest.raises(ValueError):
        Matroid(4, [[0, 1], [2]])
    with pytest.raises(ValueError):
        Matroid(4, [[0, 1]], labels=["a"])


def test_bases_deduplicated():
    assert len(Matroid(4, [[0, 1], [1, 0], [0, 2]]).bases) == 2


# -- validity ----------------------------------------------------------------------


def test_is_valid(running_example):
    assert running_example.is_valid()
    assert not Matroid(4, [[0, 1], [2, 3]]).is_valid()
    assert uniform_matroid(2, 4).is_valid()


def random_family(rng: Random) -> Matroid:
    """A seeded equicardinal basis family on at most 7 elements: a random
    matroid, the same with one r-subset toggled in or out, or random r-subsets
    with 2 <= r <= n - 2 (every family of another rank is a matroid)."""
    def subsets(n: int, r: int) -> list[int]:
        return [sum(1 << e for e in c) for c in combinations(range(n), r)]

    m = random_matroid(rng, max_n=7)
    kind = rng.randrange(3)
    if kind == 0:
        return m
    if kind == 1:
        family = set(m.basis_masks) ^ {rng.choice(subsets(m.n, m.rank))}
        return Matroid._from_masks(m.n, family or m.basis_masks)
    n = rng.randint(4, 7)
    pool = subsets(n, rng.randint(2, n - 2))
    return Matroid._from_masks(n, rng.sample(pool, rng.randint(1, len(pool))))


def test_is_valid_matches_brute_force():
    rng = Random(41)
    verdicts = []
    for _ in range(300):
        m = random_family(rng)
        verdicts.append(m.is_valid())
        assert verdicts[-1] == brute_is_valid(m), m.basis_masks
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 50


# -- equality ----------------------------------------------------------------------


def test_equality_ignores_labels(running_example):
    unlabeled = Matroid(4, [[0, 1], [0, 2]])
    assert running_example == unlabeled
    assert hash(running_example) == hash(unlabeled)


def test_equality_roundtrips(running_example, u24):
    assert dual(dual(running_example)) == running_example
    assert running_example != u24


# -- rank and closure --------------------------------------------------------------


def test_rank_of(running_example):
    m = running_example
    assert m.rank_of(GroundSubset.full(4)) == 2
    assert m.rank_of([0, 3]) == 1
    assert m.rank_of([]) == 0


def test_closure(running_example):
    m = running_example
    assert m.closure([2, 3]).indices() == (1, 2, 3)
    assert m.closure(GroundSubset.full(4)).indices() == (0, 1, 2, 3)
    assert m.closure([]).indices() == (3,)


def test_closure_matches_brute_force(running_example, u24):
    for m in [running_example, u24] + seeded_matroids(43):
        assert m.loops().bits == brute_closure(m, 0)
        for mask in range(1 << m.n):
            assert m.closure(GroundSubset(mask, m.n)).bits == brute_closure(m, mask)


# -- dependence --------------------------------------------------------------------


def test_is_dependent(running_example):
    m = running_example
    assert not m.is_dependent([1])
    assert m.is_dependent([3])
    assert not m.is_dependent([])


def test_independents(running_example, u24):
    assert indices(running_example.independents(2)) == {(0, 1), (0, 2)}
    assert indices(running_example.independents(0)) == {()}
    assert indices(u24.independents(1)) == {(0,), (1,), (2,), (3,)}


def test_independents_match_brute_force(running_example, u24):
    """Every k-subset of rank k, in lexicographic order, from k = 0 to past the rank."""
    for m in [running_example, u24, uniform_matroid(0, 3)] + seeded_matroids(61):
        for k in range(m.rank + 2):
            expected = [
                combo
                for combo in combinations(range(m.n), k)
                if brute_rank(m, sum(1 << e for e in combo)) == k
            ]
            assert [s.indices() for s in m.independents(k)] == expected
        assert m.independents(m.rank + 1) == []
    with pytest.raises(ValueError):
        u24.independents(-1)


def test_independents_above_the_rank_return_at_once():
    # C(24, 12) = 2,704,156 subsets, none of them independent
    start = time.perf_counter()
    assert uniform_matroid(2, 24).independents(12) == []
    assert time.perf_counter() - start < 0.1


# -- circuits ----------------------------------------------------------------------


def test_circuits(running_example, u24):
    assert indices(running_example.circuits()) == {(1, 2), (3,)}
    # frozen from the powerset oracle: every 3-subset of U(2,4) is a circuit
    assert indices(u24.circuits()) == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    assert uniform_matroid(3, 3).circuits() == ()


def test_circuits_match_brute_force(running_example, u24):
    for m in [running_example, u24, uniform_matroid(0, 3)] + seeded_matroids(53):
        got = [c.bits for c in m.circuits()]
        assert set(got) == brute_circuits(m)
        assert got == sorted(got, key=canon_key) and len(set(got)) == len(got)


def test_wide_ground_set_circuits():
    # one triangle and 4,093 loops
    m = Matroid(4096, [[0, 1], [0, 2], [1, 2]])
    start = time.perf_counter()
    circuits = [c.indices() for c in m.circuits()]
    assert time.perf_counter() - start < 2
    assert circuits == [(e,) for e in range(3, 4096)] + [(0, 1, 2)]


# -- loops and coloops -------------------------------------------------------------


def test_loops_coloops(running_example, u24):
    assert running_example.loops().indices() == (3,)
    assert running_example.coloops().indices() == (0,)
    assert dual(running_example).loops().indices() == (0,)
    assert u24.loops().indices() == ()


# -- flats -------------------------------------------------------------------------


def test_flats(running_example):
    levels = running_example.flats()
    assert [[f.indices() for f in level] for level in levels] == [
        [(3,)],
        [(0, 3), (1, 2, 3)],
        [(0, 1, 2, 3)],
    ]


def test_flats_uniform(u24):
    # frozen from the closures-of-all-subsets oracle
    levels = u24.flats()
    assert [len(level) for level in levels] == [1, 4, 1]
    assert indices(levels[1]) == {(0,), (1,), (2,), (3,)}


def test_flats_match_brute_force(running_example, u24):
    for m in [running_example, u24] + seeded_matroids(47):
        expected = brute_flats_by_rank(m)
        got = m.flats()
        assert [{f.bits for f in level} for level in got] == expected


def levels_of(m: Matroid) -> list[list[int]]:
    return [[f.bits for f in level] for level in m.flats()]


def test_flats_match_the_closure_oracle_level_by_level():
    """Same flats in the same order as one closure sweep per (flat, element)."""
    for m in [graphic_matroid(complete_graph(6)), uniform_matroid(5, 10)] + seeded_matroids(61):
        assert levels_of(m) == closure_flats_by_level(m)


@pytest.mark.parametrize("seed", [1, 2])
def test_flats_match_the_closure_oracle_on_the_core_queries_pool(monkeypatch, seed):
    """The benchmark's seeded pool, up to 12 elements: the two cactus graphs
    (n 25 and 28) have too many flats for the oracle, and the workload lists
    flats only up to 10 elements."""
    monkeypatch.syspath_prepend(str(BENCH))
    plan = importlib.import_module("inprocess").core_setup(seed)
    pool = [Matroid(it.n, it.bases) for it in plan.items.values() if it.n <= 12]
    assert len(pool) >= 15
    for m in pool:
        assert levels_of(m) == closure_flats_by_level(m)


def test_fvector_of_mk7_is_a_stirling_row():
    """The flats of M(K_n) are the set partitions of the n vertices, so the
    f-vector of M(K7) is the row S(7, 7 - k) of Stirling numbers."""
    m = graphic_matroid(complete_graph(7))
    start = time.perf_counter()
    assert m.fvector() == [1, 21, 140, 350, 301, 63, 1]
    assert time.perf_counter() - start < 5


def test_fvector_of_u612_is_binomial():
    assert uniform_matroid(6, 12).fvector() == [comb(12, k) for k in range(6)] + [1]


def test_flats_answer_on_invalid_families():
    """An invalid family has no cover rule to follow, but listing its
    "flats" must still return, never raise."""
    for m in invalid_families(83, 300):
        assert len(m.flats()) == m.rank + 1


def test_fvector(running_example, u24):
    assert running_example.fvector() == [1, 2, 1]
    assert u24.fvector() == [1, 4, 1]
    assert uniform_matroid(0, 0).fvector() == [1]


# -- hyperplanes -------------------------------------------------------------------


def test_hyperplanes(running_example, u24):
    assert indices(running_example.hyperplanes()) == {(0, 3), (1, 2, 3)}
    # rank-1 flats of U(2,4) are its hyperplanes
    assert indices(u24.hyperplanes()) == {(0,), (1,), (2,), (3,)}
    assert indices(uniform_matroid(1, 1).hyperplanes()) == {()}


def test_hyperplanes_match_brute_force(running_example, u24):
    for m in [running_example, u24, uniform_matroid(0, 3)] + seeded_matroids(59):
        got = [h.bits for h in m.hyperplanes()]
        assert set(got) == (brute_flats_by_rank(m)[m.rank - 1] if m.rank else set())
        assert got == sorted(got, key=canon_key) and len(set(got)) == len(got)


# -- labels ------------------------------------------------------------------------


def test_label_translation(running_example):
    m = running_example
    assert m.labels_of([0, 1]) == ["a", "b"]
    assert m.indices_of(["a", "c"]) == [0, 2]
    assert m.labels_of([]) == []
    assert m.indices_of(m.labels_of([2, 0])) == [2, 0]


def test_label_errors(running_example):
    with pytest.raises(ValueError):
        running_example.labels_of([9])
    with pytest.raises(ValueError):
        running_example.indices_of(["z"])
    with pytest.raises(ValueError):
        Matroid(2, [[0]]).labels_of([0])
