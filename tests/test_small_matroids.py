"""Every basis family on at most five elements, checked against the oracles.

`all_basis_families` lists the 2,229 nonempty equicardinal families on
n <= 5. Of these, 1, 2, 5, 16, 68 and 406 are matroids for n = 0 to 5 (the
labelled matroids, OEIS A058673), falling into 1, 2, 4, 8, 17 and 38
isomorphism classes (Mayhew and Royle, JCTB 98 (2008); OEIS A055545). Each
matroid is then checked query by query against the brute-force oracles.
"""

from collections import Counter

from matroidkit import GroundSubset, dual, has_minor, isomorphism, tutte_polynomial
from oracles import (
    all_basis_families,
    apply_permutation,
    brute_circuits,
    brute_closure,
    brute_flats_by_rank,
    brute_is_valid,
    brute_isomorphic,
    brute_minor_witness,
    brute_rank,
    tutte_by_activities,
)

FAMILIES = list(all_basis_families(5))
MATROIDS = [m for m in FAMILIES if brute_is_valid(m)]


def test_is_valid_on_every_family():
    assert len(FAMILIES) == 2229
    for m in FAMILIES:
        assert m.is_valid() == brute_is_valid(m), (m.n, m.basis_masks)
    counts = Counter(m.n for m in MATROIDS)
    assert [counts[n] for n in range(6)] == [1, 2, 5, 16, 68, 406]


def test_isomorphism_on_every_pair_and_the_class_counts():
    """Every pair with equal size, rank and basis count; a matroid opens a
    class when no earlier matroid of its shape is isomorphic to it."""
    shapes: dict[tuple[int, int, int], list] = {}
    for m in MATROIDS:
        shapes.setdefault((m.n, m.rank, len(m.basis_masks)), []).append(m)
    classes = Counter()
    for group in shapes.values():
        for j, b in enumerate(group):
            new = True
            for a in group[:j]:
                w = isomorphism(a, b)
                assert (w is not None) == brute_isomorphic(a, b)
                if w is not None:
                    assert {apply_permutation(x, w.perm) for x in a.basis_masks} == set(b.basis_masks)
                    new = False
            classes[b.n] += new
    assert [classes[n] for n in range(6)] == [1, 2, 4, 8, 17, 38]


def test_circuits_flats_rank_and_closure():
    for m in MATROIDS:
        assert {c.bits for c in m.circuits()} == brute_circuits(m)
        assert [{f.bits for f in level} for level in m.flats()] == brute_flats_by_rank(m)
        for mask in range(1 << m.n):
            subset = GroundSubset(mask, m.n)
            assert m.rank_of(subset) == brute_rank(m, mask)
            assert m.closure(subset).bits == brute_closure(m, mask)


def test_tutte_by_activities_and_under_duality():
    for m in MATROIDS:
        t = tutte_polynomial(m)
        assert t == tutte_by_activities(m)
        assert tutte_polynomial(dual(m)).terms() == {(j, i): c for (i, j), c in t.terms().items()}


def test_has_minor_is_the_lexicographic_oracle():
    """Every matroid as host against every matroid on at most three elements:
    the witness, or its absence, is the oracle's."""
    patterns = [m for m in MATROIDS if m.n <= 3]
    assert len(patterns) == 24
    found = 0
    for host in MATROIDS:
        for pattern in patterns:
            w = has_minor(host, pattern)
            got = None if w is None else (w.contract.bits, w.delete.bits)
            assert got == brute_minor_witness(host, pattern)
            found += w is not None
    assert found == 8719
