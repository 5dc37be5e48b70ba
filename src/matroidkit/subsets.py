"""Bitset-backed index subsets of a fixed ground set {0, ..., n-1}."""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterable, Iterator, Sequence, Union

SubsetLike = Union["GroundSubset", Iterable[int]]


def mask_from_indices(subset: SubsetLike, n: int) -> int:
    """The bitmask of a GroundSubset on n elements, or of indices checked
    against the range [0, n): the one step from a caller's subset to a mask."""
    if isinstance(subset, GroundSubset):
        if subset.n != n:
            raise ValueError(f"subset lives on {subset.n} elements, the ground set has {n}")
        return subset.bits
    mask = 0
    for i in subset:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for ground set of size {n}")
        mask |= 1 << i
    return mask


def k_subsets(n: int, k: int) -> Iterator[int]:
    """The k-subsets of range(n) as masks, in lexicographic order."""
    return map(sum, combinations([1 << e for e in range(n)], k))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def classes(n: int, pairs: Iterable[Iterable[int]]) -> list[int]:
    """The classes of range(n) that the pairs join, as masks in order of their
    least element: union-find with path halving, each root its class's least."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    masks = [0] * n  # masks[r]: the class rooted at r
    for e in range(n):
        masks[find(e)] |= 1 << e
    return [m for m in masks if m]


class Frozen:
    """Immutable value with its fields in ``__slots__`` order: positional
    construction, equality within one class, hashing and a field repr."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSubset(Frozen):
    """Immutable subset of {0, ..., n-1} stored as a bitmask."""

    __slots__ = ("bits", "n")
    bits: int
    n: int

    def __init__(self, bits: int, n: int) -> None:
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError(f"bitmask {bits:#x} has bits outside [0, {n})")
        _set_bits(self, bits)
        _set_n(self, n)

    @classmethod
    def of(cls, indices: Iterable[int], n: int) -> "GroundSubset":
        return cls(mask_from_indices(indices, n), n)

    @classmethod
    def empty(cls, n: int) -> "GroundSubset":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "GroundSubset":
        return cls((1 << n) - 1, n)

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and self.bits >> i & 1 == 1

    def _same_ground(self, other: "GroundSubset") -> None:
        if self.n != other.n:
            raise ValueError(f"ground set sizes differ ({self.n} vs {other.n})")

    def union(self, other: "GroundSubset") -> "GroundSubset":
        self._same_ground(other)
        return GroundSubset(self.bits | other.bits, self.n)

    def intersection(self, other: "GroundSubset") -> "GroundSubset":
        self._same_ground(other)
        return GroundSubset(self.bits & other.bits, self.n)

    def difference(self, other: "GroundSubset") -> "GroundSubset":
        self._same_ground(other)
        return GroundSubset(self.bits & ~other.bits, self.n)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def complement(self) -> "GroundSubset":
        return GroundSubset(((1 << self.n) - 1) ^ self.bits, self.n)

    def issubset(self, other: "GroundSubset") -> bool:
        self._same_ground(other)
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        inner = ", ".join(map(str, self.indices()))
        return f"GroundSubset({{{inner}}}, n={self.n})"


# the slot setters, which skip the frozen __setattr__ on the hot constructors
_set_bits = GroundSubset.bits.__set__
_set_n = GroundSubset.n.__set__


def _subsets_of(masks: Sequence[int], n: int) -> list[GroundSubset]:
    """GroundSubsets of masks already known to lie in [0, 2^n), built without
    __init__'s range checks: any() runs each slot setter, which returns None."""
    subsets = list(map(object.__new__, repeat(GroundSubset, len(masks))))
    any(map(_set_bits, subsets, masks))
    any(map(_set_n, subsets, repeat(n)))
    return subsets
