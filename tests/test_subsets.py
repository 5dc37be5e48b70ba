import pytest
from hypothesis import given
from hypothesis import strategies as st

from matroidkit import GroundSubset
from matroidkit.subsets import canon_key, iter_bits, mask_from_indices


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


def test_canon_key_orders_by_size_then_elements():
    assert canon_key(0b1000) < canon_key(0b0110)
    assert canon_key(0b0011) < canon_key(0b0101)


@given(st.sets(st.integers(0, 15)), st.just(16))
def test_roundtrip_indices(indices, n):
    s = GroundSubset.of(indices, n)
    assert set(s.indices()) == indices
    assert list(iter_bits(s.bits)) == sorted(indices)
