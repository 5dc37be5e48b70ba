import pytest
from hypothesis import given
from hypothesis import strategies as st

from matroidkit import GroundSubset
from matroidkit.subsets import _subsets_of, classes, iter_bits, k_subsets, mask_from_indices


def test_construction_and_indices():
    s = GroundSubset.of([0, 3], 4)
    assert s.bits == 0b1001
    assert s.indices() == (0, 3)
    assert len(s) == 2
    assert 0 in s and 3 in s and 1 not in s and 7 not in s
    assert list(s) == [0, 3]


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        GroundSubset.of([4], 4)
    with pytest.raises(ValueError):
        GroundSubset(0b10000, 4)
    with pytest.raises(ValueError):
        mask_from_indices([-1], 4)


def test_set_operations():
    a = GroundSubset.of([0, 1], 4)
    b = GroundSubset.of([1, 2], 4)
    assert (a | b).indices() == (0, 1, 2)
    assert (a & b).indices() == (1,)
    assert (a - b).indices() == (0,)
    assert a.complement().indices() == (2, 3)
    assert a.issubset(GroundSubset.full(4))
    assert not a.issubset(b)


def test_mismatched_ground_sets_rejected():
    with pytest.raises(ValueError):
        GroundSubset.of([0], 3) | GroundSubset.of([0], 4)


def test_empty_and_full():
    assert len(GroundSubset.empty(5)) == 0
    assert GroundSubset.full(5).indices() == (0, 1, 2, 3, 4)
    assert GroundSubset.empty(0).bits == 0
    assert _subsets_of([0, 7], 3) == [GroundSubset.empty(3), GroundSubset.full(3)]
    assert _subsets_of([], 3) == []


@given(st.sets(st.integers(0, 15)), st.just(16))
def test_roundtrip_indices(indices, n):
    s = GroundSubset.of(indices, n)
    assert set(s.indices()) == indices
    assert list(iter_bits(s.bits)) == sorted(indices)


def test_classes_in_order_of_least_element():
    assert classes(0, []) == []
    assert classes(5, [(3, 4), (1, 3)]) == [0b1, 0b11010, 0b100]
    # linking 4 to 1 after 2 to 4 still roots the class at its least element
    assert classes(6, [(4, 2), (5, 0), (1, 4), (3, 3)]) == [0b100001, 0b10110, 0b1000]


def test_k_subsets_in_lexicographic_order():
    """Lexicographic in the sorted index tuples, from the powerset: one empty
    set for size 0, nothing for a size above the pool."""
    for pool in range(8):
        for size in range(pool + 2):
            want = sorted(tuple(iter_bits(m)) for m in range(1 << pool) if m.bit_count() == size)
            assert list(k_subsets(pool, size)) == [sum(1 << e for e in c) for c in want]
    assert list(k_subsets(0, 0)) == [0] and list(k_subsets(3, 0)) == [0]
    assert list(k_subsets(3, 4)) == []
    assert list(k_subsets(4, 2)) == [0b11, 0b101, 0b1001, 0b110, 0b1010, 0b1100]
