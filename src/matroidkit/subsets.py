"""Bitset-backed index subsets of a fixed ground set {0, ..., n-1}."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Pack indices into a bitmask, checking the range [0, n)."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for ground set of size {n}")
        mask |= 1 << i
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canon_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key for subsets: cardinality, then element order."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


@dataclass(frozen=True, slots=True)
class GroundSubset:
    """Immutable subset of {0, ..., n-1} stored as a bitmask."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("ground set size must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bitmask {self.bits:#x} has bits outside [0, {self.n})")

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
