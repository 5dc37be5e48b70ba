import time
from itertools import combinations
from random import Random

import pytest

from matroidkit import GroundSubset, Matroid, dual, uniform_matroid
from matroidkit.subsets import canon_key
from oracles import (
    brute_circuits,
    brute_closure,
    brute_flats_by_rank,
    brute_is_valid,
    is_independent,
    random_matroid,
)


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
