from random import Random

import pytest

from matroidkit import (
    GroundSubset,
    Matroid,
    contraction,
    deletion,
    dual,
    graphic_matroid,
    complete_graph,
    minor,
    restriction,
    uniform_matroid,
)
from matroidkit.subsets import iter_bits
from oracles import brute_rank, random_matroid


def indices(subsets):
    return {s.indices() for s in subsets}


def test_dual(running_example):
    d = dual(running_example)
    assert indices(d.bases) == {(2, 3), (1, 3)}
    assert d.labels == running_example.labels
    assert dual(d) == running_example
    assert dual(uniform_matroid(2, 4)) == uniform_matroid(2, 4)


def test_dual_identities(running_example, m5):
    for m in (running_example, m5):
        d = dual(m)
        assert m.rank + d.rank == m.n
        assert d.loops() == m.coloops()
        full = (1 << m.n) - 1
        assert {c.bits for c in d.circuits()} == {full ^ h.bits for h in m.hyperplanes()}


def test_deletion(running_example):
    n1 = deletion(running_example, [3])
    assert n1.labels == ("a", "b", "c")
    assert indices(n1.bases) == {(0, 1), (0, 2)}
    assert deletion(running_example, []) == running_example


def test_restriction(running_example):
    r = restriction(running_example, [3])
    assert r.n == 1 and r.rank == 0
    assert indices(r.bases) == {()}
    assert r.labels == ("d",)


def test_contraction(running_example):
    n2 = contraction(running_example, [1])
    assert n2.labels == ("a", "c", "d")
    assert indices(n2.bases) == {(0,)}
    assert contraction(running_example, []) == running_example


def test_contraction_rank_drop(m5):
    for size in (1, 2):
        for ind in m5.independents(size):
            assert contraction(m5, ind).rank == m5.rank - size


def test_minor(m5, m4):
    mm = minor(m5, [9], [3, 5, 8])
    assert mm.n == 6 and len(mm.bases) == 16
    assert mm == m4
    assert minor(m5, [], []) == m5


def test_minor_ground_size(m5):
    assert minor(m5, [0, 1], [5]).n == m5.n - 3


def test_minor_overlap_rejected(m5):
    with pytest.raises(ValueError):
        minor(m5, [1, 2], [2, 3])


def test_minor_matches_rank_function_definition():
    """N = (M / X) \\ Y has r_N(S) = r(S | X) - r(X), with N's elements the
    elements of E - X - Y in increasing order; ranks come from `brute_rank`."""
    rng = Random(21)
    seen = set()
    for _ in range(150):
        m = random_matroid(rng, max_n=7)
        loops, coloops = m.loops().bits, m.coloops().bits
        x = y = 0
        for e in range(m.n):
            side = rng.randrange(3)  # 0 keep, 1 contract, 2 delete
            if (loops | coloops) >> e & 1 and rng.random() < 0.5:
                side = 2
            if side == 1:
                x |= 1 << e
            elif side == 2:
                y |= 1 << e
        got = minor(m, GroundSubset(x, m.n), GroundSubset(y, m.n))
        kept = [e for e in range(m.n) if not (x | y) >> e & 1]
        assert got.n == len(kept)
        rx = brute_rank(m, x)
        for t in range(1 << len(kept)):
            s = sum(1 << kept[i] for i in iter_bits(t))
            assert brute_rank(got, t) == brute_rank(m, s | x) - rx
        if rx < x.bit_count():
            seen.add("X dependent")
        if y & loops:
            seen.add("Y loop")
        if y & coloops:
            seen.add("Y coloop")
    assert seen == {"X dependent", "Y loop", "Y coloop"}


def test_deletion_contraction_duality(running_example, u24):
    rng = Random(9)
    hosts = [running_example, u24]
    for _ in range(40):
        m = random_matroid(rng, max_n=7)
        hosts.append(Matroid(m.n, m.bases, labels=[f"e{i}" for i in range(m.n)]))
    seen = set()
    for m in hosts:
        loops, coloops = m.loops().bits, m.coloops().bits
        for mask in range(1 << m.n):
            s = GroundSubset(mask, m.n)
            got = contraction(m, s)
            want = dual(deletion(dual(m), s))
            assert (got.n, got.basis_masks, got.labels) == (
                want.n,
                want.basis_masks,
                want.labels,
            )
            assert deletion(m, s) == dual(contraction(dual(m), s))
            if m.rank_of(s) < len(s):
                seen.add("dependent")
            if mask & loops:
                seen.add("loop")
            if mask & coloops:
                seen.add("coloop")
    assert seen == {"dependent", "loop", "coloop"}


def test_basis_count_identity(m4):
    loops = m4.loops().bits
    coloops = m4.coloops().bits
    for e in range(m4.n):
        if (loops | coloops) >> e & 1:
            continue
        total = len(deletion(m4, [e]).bases) + len(contraction(m4, [e]).bases)
        assert total == len(m4.bases)

