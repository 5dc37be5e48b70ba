"""Hypothesis property suites over randomly generated small matroids."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    ExactMatrix,
    GroundSubset,
    Matroid,
    contraction,
    deletion,
    direct_sum,
    dual,
    graphic_matroid,
    linear_matroid,
    matroid_from_circuits,
    tutte_polynomial,
    uniform_matroid,
)
from matroidkit.subsets import iter_bits


@st.composite
def linear_matroids(draw, max_n=7, fields=(2, 3)):
    p = draw(st.sampled_from(fields))
    n = draw(st.integers(2, max_n))
    nrows = draw(st.integers(1, min(4, n)))
    data = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(nrows)]
    return linear_matroid(ExactMatrix(data, field=p))


@st.composite
def small_matroids(draw, max_n=7):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(linear_matroids(max_n=max_n))
    if kind == 1:
        n = draw(st.integers(1, max_n))
        return uniform_matroid(draw(st.integers(0, n)), n)
    left = draw(linear_matroids(max_n=max_n - 1, fields=(2,)))
    if left.n + 1 > max_n:
        return left
    return direct_sum(left, uniform_matroid(1, 1))


@st.composite
def equicardinal_families(draw, max_n=7):
    """Nonempty families of r-subsets, valid or not."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n))
    pool = [sum(1 << e for e in c) for c in combinations(range(n), r)]
    return Matroid._from_masks(n, draw(st.lists(st.sampled_from(pool), min_size=1)))


@st.composite
def matroid_and_subsets(draw, count=1):
    m = draw(small_matroids())
    masks = [draw(st.integers(0, (1 << m.n) - 1)) for _ in range(count)]
    return m, [GroundSubset(mask, m.n) for mask in masks]


@given(linear_matroids())
@settings(deadline=None)
def test_constructors_satisfy_exchange(m):
    assert m.is_valid()


@given(matroid_and_subsets(count=2))
@settings(deadline=None)
def test_rank_axioms(data):
    m, (s, t) = data
    rs, rt = m.rank_of(s), m.rank_of(t)
    assert 0 <= rs <= len(s)
    if s.issubset(t):
        assert rs <= rt
    union, inter = s | t, s & t
    assert m.rank_of(union) + m.rank_of(inter) <= rs + rt


@given(matroid_and_subsets(count=2))
@settings(deadline=None)
def test_closure_axioms(data):
    m, (s, t) = data
    cl = m.closure(s)
    assert s.issubset(cl)
    if s.issubset(t):
        assert cl.issubset(m.closure(t))
    assert m.closure(cl) == cl


@given(small_matroids())
@settings(deadline=None)
def test_circuit_elimination(m):
    circuits = [c.bits for c in m.circuits()]
    circuit_set = set(circuits)
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1 :]:
            overlap = c1 & c2
            for e in iter_bits(overlap):
                window = (c1 | c2) ^ (1 << e)
                assert any(c & ~window == 0 for c in circuit_set)


@given(small_matroids())
@settings(deadline=None)
def test_flat_intersections_are_flats(m):
    all_flats = {f.bits for level in m.flats() for f in level}
    flats = sorted(all_flats)
    for a in flats:
        for b in flats:
            inter = a & b
            assert m.closure(GroundSubset(inter, m.n)).bits == inter


@given(small_matroids())
@settings(deadline=None)
def test_circuit_roundtrip(m):
    rebuilt = matroid_from_circuits(m.n, list(m.circuits()))
    assert rebuilt == m and rebuilt.rank == m.rank


@given(small_matroids())
@settings(deadline=None)
def test_fvector_shape(m):
    fv = m.fvector()
    assert fv[0] == fv[-1] == 1
    assert sum(fv) == sum(len(level) for level in m.flats())


@given(st.one_of(small_matroids(), equicardinal_families()))
@settings(deadline=None)
def test_duality_identities(m):
    d = dual(m)
    assert dual(d) == m
    assert m.rank + d.rank == m.n
    assert d.loops() == m.coloops()
    full = (1 << m.n) - 1
    assert {c.bits for c in d.circuits()} == {full ^ h.bits for h in m.hyperplanes()}


@given(small_matroids())
@settings(deadline=None)
def test_deletion_contraction_basis_count(m):
    skip = m.loops().bits | m.coloops().bits
    for e in range(m.n):
        if skip >> e & 1:
            continue
        both = len(deletion(m, [e]).bases) + len(contraction(m, [e]).bases)
        assert both == len(m.bases)


@given(small_matroids(max_n=6))
@settings(deadline=None, max_examples=60)
def test_tutte_counting_evaluations(m):
    t = tutte_polynomial(m)
    assert t.evaluate(1, 1) == len(m.bases)
    assert t.evaluate(2, 2) == 2**m.n
    td = tutte_polynomial(dual(m))
    assert {(j, i): c for (i, j), c in t.terms().items()} == td.terms()


@given(small_matroids(max_n=6))
@settings(deadline=None, max_examples=40)
def test_tutte_recurrence_on_final_polynomial(m):
    # the recurrence re-checked on the finished polynomial, not just used to build it
    t = tutte_polynomial(m)
    skip = m.loops().bits | m.coloops().bits
    for e in range(m.n):
        if skip >> e & 1:
            continue
        assert t == tutte_polynomial(deletion(m, [e])) + tutte_polynomial(
            contraction(m, [e])
        )


@given(linear_matroids(max_n=6), st.data())
@settings(deadline=None, max_examples=60)
def test_greedy_weight_is_max(m, data):
    from matroidkit import greedy
    from oracles import brute_max_basis_weight

    weights = [
        Fraction(data.draw(st.integers(-8, 8)), data.draw(st.integers(1, 3)))
        for _ in range(m.n)
    ]
    picked = greedy(m, weights)
    assert sum(weights[e] for e in picked) == brute_max_basis_weight(m, weights)
    mask = 0
    for e in picked:
        mask |= 1 << e
    assert mask in set(m.basis_masks)


@given(small_matroids(max_n=6))
@settings(deadline=None, max_examples=40)
def test_chow_symmetry_and_polytope(m):
    from matroidkit import chow_hilbert, polytope_vertices

    data = polytope_vertices(m)
    assert len(data.vertices) == len(m.bases)
    assert all(sum(v) == m.rank for v in data.vertices)

    loops = m.loops()
    if len(loops):
        m = deletion(m, loops)
    if m.n == 0 or m.rank == 0:
        return
    values = [chow_hilbert(m, d) for d in range(m.rank)]
    assert values == values[::-1]


@given(linear_matroids(max_n=5))
@settings(deadline=None, max_examples=40)
def test_minor_witnesses_verify(m):
    from matroidkit import has_minor, minor, uniform_matroid
    from oracles import apply_permutation

    pattern = uniform_matroid(1, 2)
    witness = has_minor(m, pattern)
    if witness is None:
        return
    reduced = minor(m, witness.contract, witness.delete)
    mapped = {apply_permutation(b, witness.iso.perm) for b in reduced.basis_masks}
    assert mapped == set(pattern.basis_masks)
