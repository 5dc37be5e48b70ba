"""Every matroid on at most seven elements, one per isomorphism class,
checked against the oracles.

`all_matroids` grows the classes one element at a time by single-element
extensions. The class counts 1, 2, 4, 8, 17, 38, 98 and 306 for n = 0 to 7 are
the published ones (Mayhew and Royle, JCTB 98 (2008); OEIS A055545).
"""

from collections import Counter
from random import Random

from matroidkit import (
    GroundSubset,
    Matroid,
    UnivarPoly,
    dual,
    has_minor,
    isomorphism,
    tutte_evaluate,
    tutte_polynomial,
)
from oracles import (
    all_matroids,
    apply_permutation,
    brute_circuits,
    brute_closure,
    brute_flats_by_rank,
    brute_is_valid,
    brute_minor_witness,
    brute_rank,
    characteristic_by_moebius,
)

LEVELS = all_matroids(7)
MATROIDS = [m for level in LEVELS for m in level]


def test_class_counts():
    assert [len(level) for level in LEVELS] == [1, 2, 4, 8, 17, 38, 98, 306]
    assert all(m.n == n for n, level in enumerate(LEVELS) for m in level)
    by_rank = Counter(m.rank for m in LEVELS[7])
    assert [by_rank[r] for r in range(8)] == [1, 7, 37, 108, 108, 37, 7, 1]


def test_every_class_is_valid_and_isomorphic_to_a_relabelled_copy():
    """Each of the 474 classes against its reversal and a seeded random
    relabelling: the witness maps the bases of the class onto the copy's."""
    rng = Random(35)
    assert len(MATROIDS) == 474
    for m in MATROIDS:
        assert m.is_valid() and brute_is_valid(m), m.basis_masks
        shuffled = list(range(m.n))
        rng.shuffle(shuffled)
        for perm in (tuple(range(m.n))[::-1], shuffled):
            copy = {apply_permutation(b, perm) for b in m.basis_masks}
            w = isomorphism(m, Matroid._from_masks(m.n, copy))
            assert {apply_permutation(b, w.perm) for b in m.basis_masks} == copy


def test_has_minor_is_the_lexicographic_oracle():
    """Every class on at most six elements as host against every class on at
    most four: the witness, or its absence, is the oracle's."""
    hosts = [m for m in MATROIDS if m.n <= 6]
    patterns = [m for m in MATROIDS if m.n <= 4]
    assert (len(hosts), len(patterns)) == (168, 32)
    found = 0
    for host in hosts:
        for pattern in patterns:
            w = has_minor(host, pattern)
            got = None if w is None else (w.contract.bits, w.delete.bits)
            assert got == brute_minor_witness(host, pattern)
            found += w is not None
    assert found == 2542


def test_circuits_flats_rank_and_closure():
    for m in MATROIDS:
        assert {c.bits for c in m.circuits()} == brute_circuits(m)
        assert [{f.bits for f in level} for level in m.flats()] == brute_flats_by_rank(m)
        for mask in range(1 << m.n):
            subset = GroundSubset(mask, m.n)
            assert m.rank_of(subset) == brute_rank(m, mask)
            assert m.closure(subset).bits == brute_closure(m, mask)


def test_tutte_under_duality():
    for m in MATROIDS:
        swapped = {(j, i): c for (i, j), c in tutte_polynomial(m).terms().items()}
        assert tutte_polynomial(dual(m)).terms() == swapped


def test_characteristic_polynomial():
    """chi(t) = (-1)^r T(1 - t, 0) against the Moebius sum at r + 1 points,
    which fix a polynomial of degree r. On a loopless matroid its coefficients
    alternate in sign (Rota 1964) and are log-concave in absolute value
    (Adiprasito, Huh and Katz, Ann. Math. 2018). A matroid with a loop is one
    on n - 1 elements plus a loop, so the loopless classes on n elements
    number count(n) - count(n - 1)."""
    loopless = Counter()
    for m in MATROIDS:
        r, chi = m.rank, characteristic_by_moebius(m)
        for t in range(r + 1):
            assert (-1) ** r * tutte_evaluate(m, 1 - t, 0) == UnivarPoly(chi).evaluate(t)
        if m.loops().bits:
            assert chi == [0] * (r + 1)
            continue
        loopless[m.n] += 1
        assert all((-1) ** (r - k) * c > 0 for k, c in enumerate(chi))
        w = list(map(abs, chi))
        assert all(w[k] ** 2 >= w[k - 1] * w[k + 1] for k in range(1, r))
    assert [loopless[n] for n in range(8)] == [1, 1, 2, 4, 9, 21, 60, 208]
