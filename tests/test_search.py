from fractions import Fraction
from random import Random

from matroidkit import (
    ExactMatrix,
    Matroid,
    complete_graph,
    dual,
    graphic_matroid,
    has_minor,
    isomorphism,
    linear_matroid,
    minor,
    specific_matroid,
    uniform_matroid,
)
from matroidkit.search import apply_permutation
from oracles import (
    brute_isomorphic,
    brute_minor_witness,
    random_linear_matroid,
    random_matroid,
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
    # differs from the colexicographic one, so the order itself is checked.
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
