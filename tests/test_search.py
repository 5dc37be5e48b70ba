import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from random import Random

from matroidkit import (
    ExactMatrix,
    Matroid,
    complete_graph,
    direct_sum,
    dual,
    graphic_matroid,
    has_minor,
    isomorphism,
    linear_matroid,
    minor,
    specific_matroid,
    uniform_matroid,
)
from matroidkit.search import (
    _column_pair_counts,
    _walk_is_cheaper,
    _walked_pair_counts,
)
from matroidkit.subsets import GroundSubset, iter_bits
from oracles import (
    apply_permutation,
    brute_isomorphic,
    brute_minor_witness,
    cyclic_sts13,
    pasch_configurations,
    pasch_trade,
    projective_lines,
    random_linear_matroid,
    random_matroid,
    sparse_paving,
)


def rational_column_matroid():
    return linear_matroid(ExactMatrix([[0, 4, -1, 6], [0, Fraction(2, 3), 7, 1]]))


def verify_iso(source, target, witness):
    mapped = {apply_permutation(b, witness.perm) for b in source.basis_masks}
    assert mapped == set(target.basis_masks)


def test_isomorphism_with_witness(running_example):
    ma = rational_column_matroid()
    w = isomorphism(ma, running_example)
    assert w is not None
    verify_iso(ma, running_example, w)


def test_isomorphism_identity_fast_path(running_example):
    w = isomorphism(running_example, running_example)
    assert w.perm == (0, 1, 2, 3)


def test_isomorphism_rejects_mismatch(running_example, u24):
    assert isomorphism(running_example, u24) is None
    # same n, rank and basis count; the degree screen tells them apart (3, 1, 1, 1 against 2, 2, 2, 0)
    star, triangle = Matroid(4, [[0, 1], [0, 2], [0, 3]]), Matroid(4, [[0, 1], [0, 2], [1, 2]])
    assert isomorphism(star, triangle) is None and isomorphism(triangle, star) is None


def test_isomorphism_symmetric(running_example):
    ma = rational_column_matroid()
    w = isomorphism(ma, running_example)
    back = isomorphism(running_example, ma)
    verify_iso(running_example, ma, back)
    inverse = tuple(w.perm.index(i) for i in range(len(w.perm)))
    mapped = {apply_permutation(b, inverse) for b in running_example.basis_masks}
    assert mapped == set(ma.basis_masks)


def test_isomorphism_preserved_under_dual(running_example):
    ma = rational_column_matroid()
    assert isomorphism(dual(ma), dual(running_example)) is not None


def test_isomorphism_of_steiner_triple_systems_on_13_points():
    """Every pair of elements lies in the same number of bases, so the pair
    counts prune nothing; the search finishes only by checking each basis as
    its largest element is assigned."""
    sts = cyclic_sts13()
    source = sparse_paving(13, sts)
    assert len(source.basis_masks) == 260 and source.is_valid()
    perm = list(range(13))
    Random(13).shuffle(perm)
    shuffled = sparse_paving(13, sts, perm)
    w = isomorphism(source, shuffled)
    assert w is not None
    verify_iso(source, shuffled, w)
    # 13! maps is too many for brute_isomorphic; the Pasch configuration
    # count of a triple system is invariant, and the matroid's nonbases are
    # its triples, so differing counts certify None.
    traded = pasch_trade(sts)
    assert len(traded) == 26 and {len(pasch_configurations(t)) for t in (sts, traded)} == {13, 8}
    assert isomorphism(source, sparse_paving(13, traded)) is None


def test_isomorphism_of_the_steiner_triple_systems_of_pg32():
    """PG(3, 2) with its 35 lines as nonbases: every pair of points lies on
    one line, so the pair counts are all equal again. Each source basis the
    search completes maps onto a target basis long before the search fails
    on the traded copy; counting the target bases inside the image as well
    cuts those branches."""
    assert isomorphism(sparse_paving(7, projective_lines(3)), specific_matroid("fano")) is not None
    lines = projective_lines(4)
    assert len(lines) == 35
    assert all(sum(set(pair) <= line for line in lines) == 1 for pair in combinations(range(15), 2))
    source = sparse_paving(15, lines)
    assert source.n == 15 and source.rank == 3 and len(source.basis_masks) == 420
    perm = list(range(15))
    Random(15).shuffle(perm)
    shuffled = sparse_paving(15, lines, perm)
    w = isomorphism(source, shuffled)
    assert w is not None
    verify_iso(source, shuffled, w)
    # the Pasch counts 105 and 73 differ, so the traded copy is not isomorphic
    traded = pasch_trade(lines)
    assert len(traded) == 35 and [len(pasch_configurations(t)) for t in (lines, traded)] == [105, 73]
    assert isomorphism(source, sparse_paving(15, traded)) is None


def test_pair_count_derivations_agree():
    """The basis walk and the column popcounts give the same table, loops'
    empty rows included."""
    rng = Random(23)
    for k in range(300):
        m = random_matroid(rng) if k % 2 else random_linear_matroid(rng)
        assert _walked_pair_counts(m) == _column_pair_counts(m)


def test_pair_counts_walk_the_bases_of_wide_low_rank_inputs_only():
    """The rule weighs the walk's |B| r^2 dict updates against n^2 popcounts
    on columns |B| bits wide. Dense inputs read the columns; many parallel
    elements, or a dense rank 2 from about 90 elements on, walk."""
    def walks(m):
        return _walk_is_cheaper(m.n, m.rank, len(m.basis_masks))

    assert not walks(graphic_matroid(complete_graph(7)))
    assert not walks(sparse_paving(15, projective_lines(4)))
    assert not walks(uniform_matroid(3, 100))
    assert not walks(uniform_matroid(2, 80)) and walks(uniform_matroid(2, 90))
    assert walks(uniform_matroid(1, 8))
    assert walks(direct_sum(uniform_matroid(1, 25), uniform_matroid(1, 1000)))
    assert walks(direct_sum(uniform_matroid(2, 6), uniform_matroid(1, 300)))
    # U(2, 1000) less one pair: 499,499 bases, each column that many bits wide
    assert _walk_is_cheaper(1000, 2, 499_499)


def test_isomorphism_of_wide_low_rank_inputs():
    """Inputs on the walk's side of the rule: U(1, 25) + U(1, 1000), 25,000
    bases of rank 2 on 1,025 elements; U(2, 300) less the pair {0, 1},
    44,849 bases; U(2, 6) + U(1, 300), rank 3 with 300 parallel elements."""
    dense = Matroid(300, [p for p in combinations(range(300), 2) if p != (0, 1)])
    for m in (
        direct_sum(uniform_matroid(1, 25), uniform_matroid(1, 1000)),
        dense,
        direct_sum(uniform_matroid(2, 6), uniform_matroid(1, 300)),
    ):
        assert _walk_is_cheaper(m.n, m.rank, len(m.basis_masks))
        perm = list(range(m.n))
        Random(m.n).shuffle(perm)
        shuffled = Matroid(m.n, [GroundSubset(apply_permutation(b, tuple(perm)), m.n) for b in m.basis_masks])
        w = isomorphism(m, shuffled)
        assert w is not None
        verify_iso(m, shuffled, w)


def test_isomorphism_matches_brute_force():
    rng = Random(11)
    pairs = []
    for _ in range(25):
        a = random_linear_matroid(rng, max_n=6, fields=(2,))
        b = random_linear_matroid(rng, max_n=6, fields=(2,))
        pairs.append((a, b))
        # also a shuffled copy of a, which must come out isomorphic
        perm = list(range(a.n))
        rng.shuffle(perm)
        shuffled = Matroid(
            a.n, [[perm[e] for e in basis.indices()] for basis in a.bases]
        )
        pairs.append((a, shuffled))
    for a, b in pairs:
        got = isomorphism(a, b)
        assert (got is not None) == brute_isomorphic(a, b)
        if got is not None:
            verify_iso(a, b, got)


def degree_key(m):
    """n, rank, basis count and the sorted per-element basis counts: the
    invariants `isomorphism` compares before it backtracks."""
    deg = [0] * m.n
    for b in m.basis_masks:
        for e in iter_bits(b):
            deg[e] += 1
    return m.n, m.rank, len(m.basis_masks), tuple(sorted(deg))


def test_isomorphism_decides_pairs_with_tied_degrees():
    """Seeded linear matroids on 8 elements, paired within each class of equal
    degree_key, so the pair-count backtracking alone tells them apart; some
    pairs also differ in their multisets of circuit sizes."""
    rng = Random(2)
    groups = defaultdict(set)
    for _ in range(500):
        p, rows = rng.choice((2, 3, 5)), rng.choice((3, 4))
        data = [[rng.randrange(p) for _ in range(8)] for _ in range(rows)]
        m = linear_matroid(ExactMatrix(data, field=p))
        groups[degree_key(m)].add(m)
    apart = circuit_sizes_differ = 0
    for members in groups.values():
        members = sorted(members, key=lambda m: m.basis_masks)
        for a, b in zip(members, members[1:]):
            got = isomorphism(a, b)
            if got is not None:
                verify_iso(a, b, got)
                continue
            assert not brute_isomorphic(a, b)
            apart += 1
            sizes = [sorted(len(c) for c in m.circuits()) for m in (a, b)]
            circuit_sizes_differ += sizes[0] != sizes[1]
    assert apart >= 5 and circuit_sizes_differ >= 1


def test_has_minor_excluded(m5, fano, u24):
    assert has_minor(m5, u24) is None
    assert has_minor(m5, fano) is None
    assert has_minor(m5, dual(fano)) is None


def test_has_minor_found(m5, m4):
    w = has_minor(m5, m4)
    assert w is not None
    assert len(w.contract) == m5.rank - m4.rank
    assert len(w.delete) == m5.n - len(w.contract) - m4.n
    reduced = minor(m5, w.contract, w.delete)
    verify_iso(reduced, m4, w.iso)


def test_has_minor_trivial_cases(u24):
    w = has_minor(u24, u24)
    assert w is not None and len(w.contract) == 0 and len(w.delete) == 0
    # a bigger pattern can never be a minor
    assert has_minor(u24, uniform_matroid(2, 5)) is None
    assert has_minor(u24, uniform_matroid(3, 3)) is None


def test_has_minor_in_graphic(m4):
    triangle = graphic_matroid(complete_graph(3))
    w = has_minor(m4, triangle)
    assert w is not None
    reduced = minor(m4, w.contract, w.delete)
    verify_iso(reduced, triangle, w.iso)


def test_has_minor_deterministic(m5, m4):
    assert has_minor(m5, m4) == has_minor(m5, m4)


def check_minor_against_oracle(host, pattern):
    w = has_minor(host, pattern)
    expected = brute_minor_witness(host, pattern)
    if expected is None:
        assert w is None
        return False
    assert w is not None
    assert (w.contract.bits, w.delete.bits) == expected
    verify_iso(minor(host, w.contract, w.delete), pattern, w.iso)
    return True


def test_has_minor_matches_brute_force_oracle():
    patterns = [
        uniform_matroid(2, 4),
        uniform_matroid(1, 2),
        uniform_matroid(2, 3),
        uniform_matroid(0, 1),
        uniform_matroid(1, 1),
        Matroid(3, [[0], [1]]),  # U(1,2) plus one loop
    ]
    rng = Random(4)
    found = 0
    for _ in range(150):
        host = random_matroid(rng, max_n=7)
        found += sum(check_minor_against_oracle(host, p) for p in patterns)
    assert found > 200


def test_has_minor_random_patterns_match_oracle():
    # Random patterns reach hosts where the lexicographically first witness
    # differs from the colexicographically first (4 of the 817 found), so the
    # order itself is checked.
    rng = Random(1)
    found = 0
    for _ in range(2000):
        host = random_matroid(rng, max_n=7)
        found += check_minor_against_oracle(host, random_matroid(rng, max_n=4))
    assert found > 500


def test_has_minor_k6():
    m6 = graphic_matroid(complete_graph(6))
    fano = specific_matroid("fano")
    for pattern in (uniform_matroid(2, 4), fano, dual(fano)):
        assert has_minor(m6, pattern) is None
    m4 = graphic_matroid(complete_graph(4))
    w = has_minor(m6, m4)
    assert w is not None
    verify_iso(minor(m6, w.contract, w.delete), m4, w.iso)


def test_has_minor_tries_contract_sets_before_listing_them_all():
    """The first contract set of a one-basis host holds the witness, so the
    C(20, 9) = 167,960 contract sets are never listed."""
    host = Matroid(20, [range(10)])
    start = time.perf_counter()
    w = has_minor(host, uniform_matroid(1, 1))
    assert time.perf_counter() - start < 0.1
    assert w.contract.indices() == tuple(range(9)) and w.delete.indices() == tuple(range(10, 20))
