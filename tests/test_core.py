import importlib
import time
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest

from matroidkit import (
    GroundSubset,
    Matroid,
    complete_graph,
    contraction,
    deletion,
    direct_sum,
    dual,
    graphic_matroid,
    greedy,
    matroid_from_circuits,
    matroid_from_nonbases,
    minor,
    restriction,
    uniform_matroid,
)
from matroidkit.core import _fundamental_circuits, _in_order
from matroidkit.transform import _reindex
from oracles import (
    brute_circuits,
    brute_closure,
    brute_flats_by_rank,
    brute_is_valid,
    brute_rank,
    canon_key,
    closure_flats_by_level,
    invalid_families,
    is_independent,
    meeting_bases,
    pair_fundamental_circuits,
    random_linear_matroid,
    random_matroid,
    reference_columns,
    round_greedy,
    sweep_closure,
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
    with pytest.raises(ValueError):
        Matroid(4, [GroundSubset(0b11, 3)])  # a subset of a different ground set
    with pytest.raises(ValueError):
        Matroid(4, [[0, 1]]).rank_of(GroundSubset(0b1, 5))
    with pytest.raises(ValueError, match="ground set size must be nonnegative"):
        Matroid(-1, [[]])


# every public entry that takes a subset of a matroid's ground set
SUBSET_ENTRIES = {
    "rank_of": lambda m, s: m.rank_of(s),
    "closure": lambda m, s: m.closure(s),
    "is_dependent": lambda m, s: m.is_dependent(s),
    "restriction": restriction,
    "deletion": deletion,
    "contraction": contraction,
    "minor_contract": lambda m, s: minor(m, s, []),
    "minor_delete": lambda m, s: minor(m, [], s),
    "Matroid": lambda m, s: Matroid(m.n, [s]),
    "matroid_from_circuits": lambda m, s: matroid_from_circuits(m.n, [s]),
    "matroid_from_nonbases": lambda m, s: matroid_from_nonbases(m.n, [s], 1),
    "GroundSubset.of": lambda m, s: GroundSubset.of(s, m.n),
}


@pytest.mark.parametrize("entry", SUBSET_ENTRIES.values(), ids=list(SUBSET_ENTRIES))
def test_subset_entries_refuse_other_ground_sets(entry):
    m = uniform_matroid(2, 4)
    for subset, message in [
        (GroundSubset(0b1, 5), "subset lives on 5 elements, the ground set has 4"),
        (GroundSubset(0b1, 3), "subset lives on 3 elements, the ground set has 4"),
        ([4], "index 4 out of range for ground set of size 4"),
        ([0, -1], "index -1 out of range for ground set of size 4"),
    ]:
        with pytest.raises(ValueError) as info:
            entry(m, subset)
        assert str(info.value) == message


def test_bases_deduplicated():
    assert len(Matroid(4, [[0, 1], [1, 0], [0, 2]]).bases) == 2


def test_construction_refuses_a_repeated_index():
    """A repeat would shrink its basis silently; the CLI loader says the same."""
    with pytest.raises(ValueError, match=r"^basis \[0, 0\] repeats an index$"):
        Matroid(3, [[0, 0]])
    with pytest.raises(ValueError, match=r"^basis \(0, 1, 1\) repeats an index$"):
        Matroid(3, [[0, 1], (0, 1, 1)])
    with pytest.raises(ValueError, match="equicardinal"):
        Matroid(3, [[0, 1], [2, 2]])
    m = Matroid(3, (iter(b) for b in [[1, 0], [2, 1]]))  # single-use iterables
    assert m.basis_masks == (0b011, 0b110)
    assert Matroid(3, [GroundSubset(0b101, 3), [1, 0]]).basis_masks == (0b011, 0b101)


def test_bases_are_equal_on_repeated_calls():
    m = graphic_matroid(complete_graph(4))
    first = m.bases
    assert m.bases == first and len(first) == 16
    assert first == tuple(GroundSubset(b, m.n) for b in m.basis_masks)


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
    assert repr(running_example) == "Matroid(n=4, rank=2, bases=2)"


def test_equality_roundtrips(running_example, u24):
    assert dual(dual(running_example)) == running_example
    assert running_example != u24
    assert running_example.__eq__(running_example.basis_masks) is NotImplemented
    assert running_example != running_example.basis_masks


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


# -- the rank index: basis columns ----------------------------------------------------


def matroid_on(rng: Random, n: int) -> Matroid:
    """A seeded matroid on exactly n elements: a `random_matroid` plus a
    uniform part of rank 0, 1, all but one or all, its elements shuffled so
    that both parts cross byte boundaries."""
    if n < 2:
        return uniform_matroid(rng.randint(0, n), n)
    m = random_matroid(rng, max_n=min(n, 7))
    if m.n < n:
        k = n - m.n
        m = direct_sum(m, uniform_matroid(rng.choice([0, 1, k - 1, k]), k))
    perm = rng.sample(range(n), n)
    return Matroid(n, [[perm[e] for e in b.indices()] for b in m.bases])


def two_level_document(n: int = 4096) -> Matroid:
    """Bases {e} plus every odd element, for each even e: n / 2 + 1 parts."""
    odd = sum(1 << e for e in range(1, n, 2))
    return Matroid._from_masks(n, [odd | 1 << e for e in range(0, n, 2)])


def sweep_rank(m: Matroid, mask: int) -> int:
    return max((b & mask).bit_count() for b in m.basis_masks)


def sweep_greedy(m: Matroid, weights) -> list[int]:
    """The greedy rule in descending weight order, ranks by basis sweeps."""
    chosen, order = 0, []
    for e in sorted(range(m.n), key=weights.__getitem__, reverse=True):
        if sweep_rank(m, chosen | 1 << e) > len(order):
            order.append(e)
            chosen |= 1 << e
    return order


def check_rank_index(m: Matroid, rng: Random, small: bool, count: int = 12) -> None:
    """Rank, closure and contraction on seeded subsets, against the
    brute-force oracles when small, otherwise against the basis sweeps;
    loops and coloops."""
    full = (1 << m.n) - 1
    rank, closure = (brute_rank, brute_closure) if small else (sweep_rank, sweep_closure)
    for _ in range(count):
        s = rng.getrandbits(m.n) & rng.getrandbits(m.n) if m.n else 0
        sub = GroundSubset(s, m.n)
        assert m.rank_of(sub) == rank(m, s)
        assert m.closure(sub).bits == closure(m, s)
        assert m.is_dependent(sub) == (rank(m, s) < s.bit_count())
        expected = _reindex(m, full & ~s, [b & ~s for b in meeting_bases(m, s)])
        assert contraction(m, sub) == expected
    assert m.loops().bits == closure(m, 0)
    common = full
    for b in m.basis_masks:
        common &= b
    assert m.coloops().bits == common


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_rank_index_matches_the_oracles_across_byte_boundaries(n):
    """Columns against the per-bit build, and every query on them against
    the oracles; greedy against the round-by-round rule or the sweeps."""
    rng = Random(1800 + n)
    for _ in range(12):
        m = matroid_on(rng, n)
        assert m._columns() == reference_columns(m)
        check_rank_index(m, rng, small=n <= 9)
        weights = [rng.randint(-3, 3) for _ in range(m.n)]
        assert greedy(m, weights) == (round_greedy if n <= 9 else sweep_greedy)(m, weights)


def test_rank_index_on_the_two_level_document():
    """Every odd element is a coloop, and the even ones form one parallel
    class: the column of an odd element holds every basis, and that of an
    even e only the basis at position e / 2."""
    m = two_level_document()
    assert len(m.basis_masks) == 2048 and m.rank == 2049
    everything = (1 << 2048) - 1
    assert m._columns() == [everything if e % 2 else 1 << e // 2 for e in range(m.n)]
    rng = Random(18)
    check_rank_index(m, rng, small=False, count=3)
    weights = [rng.randint(-9, 9) for _ in range(m.n)]
    order = sorted(range(m.n), key=weights.__getitem__, reverse=True)
    first_even = next(e for e in order if e % 2 == 0)
    assert greedy(m, weights) == [e for e in order if e % 2 or e == first_even]


def test_columns_of_mk8_build_within_a_second():
    m = graphic_matroid(complete_graph(8))  # 262,144 bases
    start = time.perf_counter()
    col = m._columns()
    assert time.perf_counter() - start < 1
    assert [c.bit_count() for c in col] == [262144 * 7 // 28] * 28
    assert m._columns() is col  # built once


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


def test_independents_match_the_independence_oracle():
    """Seeded random and random linear matroids up to 9 elements: for every k
    from 0 to r + 1, the lexicographic k-subsets inside some basis, in order."""
    rng = Random(71)
    ms = [random_matroid(rng, max_n=9) for _ in range(60)]
    ms += [random_linear_matroid(rng, max_n=9) for _ in range(60)]
    for m in ms:
        for k in range(m.rank + 2):
            got = m.independents(k)
            masks = (sum(1 << e for e in combo) for combo in combinations(range(m.n), k))
            assert [s.bits for s in got] == [s for s in masks if is_independent(m, s)]
            assert all(s.n == m.n for s in got)


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


def test_fundamental_circuits_match_the_pair_loop():
    """The keyed pass gives the sets of the per-pair definition on any
    equicardinal family, valid or not, on its complements, and in any order."""
    rng = Random(61)
    families = seeded_matroids(61, 300) + invalid_families(5, 300)
    families += [graphic_matroid(complete_graph(5)), uniform_matroid(3, 7), Matroid(9, [[]])]
    for m in families:
        full = (1 << m.n) - 1
        for masks in (list(m.basis_masks), [full ^ b for b in m.basis_masks]):
            want = pair_fundamental_circuits(masks, full)
            assert _fundamental_circuits(masks, full) == want
            rng.shuffle(masks)
            assert _fundamental_circuits(masks, full) == want


def test_circuits_and_hyperplanes_in_canonical_order():
    for m in seeded_matroids(67, 100) + invalid_families(7, 100):
        for got in (m.circuits(), m.hyperplanes()):
            masks = [s.bits for s in got]
            assert masks == sorted(set(masks), key=canon_key)


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
    shapes = [
        graphic_matroid(complete_graph(6)),
        uniform_matroid(5, 10),
        uniform_matroid(6, 6),  # every element a coloop of every contraction
        direct_sum(uniform_matroid(3, 3), uniform_matroid(2, 5)),
        direct_sum(uniform_matroid(0, 2), uniform_matroid(2, 4)),
        uniform_matroid(0, 3),  # one level, cl(empty) = E
        Matroid(0, [[]]),
    ]
    for m in shapes + seeded_matroids(61):
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


def test_flat_order_key_matches_the_element_tuples():
    """Flats, circuits and hyperplanes are sorted by one integer key, made
    byte by byte; it orders sets as their ascending element tuples do, and by
    size first as `canon_key` does, on seeded random sets for n = 0 to 130,
    across every byte boundary up to 128/129. Long shared prefixes, runs of
    the elements right after a prefix (which tie in the key), single
    elements, the full set and the empty set are among them."""
    rng = Random(17)
    for n in range(131):
        masks = {rng.getrandbits(n) for _ in range(40)} | {0, (1 << n) - 1}
        if n:
            masks |= {1, 1 << (n - 1)}
            masks |= {m ^ 1 << rng.randrange(n) for m in list(masks)}
            cuts = (sorted((rng.randrange(n + 1), rng.randrange(n + 1))) for _ in list(masks))
            masks |= {m & (1 << i) - 1 | (1 << j) - (1 << i) for m, (i, j) in zip(list(masks), cuts)}
        got = [s.bits for s in _in_order(masks, n)]
        assert got == sorted(masks, key=lambda m: canon_key(m)[1])
        got = [s.bits for s in _in_order(masks, n, by_size=True)]
        assert got == sorted(masks, key=canon_key)
        assert all(s.n == n for s in _in_order(masks, n))


def test_canon_key_orders_by_size_then_elements():
    assert canon_key(0b1000) < canon_key(0b0110)
    assert canon_key(0b0011) < canon_key(0b0101)


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
    with pytest.raises(ValueError):
        Matroid(2, [[0]]).indices_of(["0"])
