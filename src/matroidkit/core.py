"""The bases-backed matroid type and its cryptomorphic queries."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence, Union

from .subsets import GroundSubset, canon_key, iter_bits, mask_from_indices

SubsetLike = Union[GroundSubset, Iterable[int]]


def as_mask(subset: SubsetLike, n: int) -> int:
    """Coerce a GroundSubset or an iterable of indices to a bitmask over n elements."""
    if isinstance(subset, GroundSubset):
        if subset.n != n:
            raise ValueError(f"subset lives on {subset.n} elements, matroid has {n}")
        return subset.bits
    return mask_from_indices(subset, n)


class Matroid:
    """A matroid on {0, ..., n-1}, represented internally by its list of bases.

    Construction checks only that the basis family is nonempty and
    equicardinal; the full exchange check is the separate `is_valid` call.
    Instances are immutable apart from memoized query results, which are pure
    functions of (n, bases), so a duplicated concurrent fill is harmless.
    Labels are display-only metadata; all computation uses indices.
    """

    __slots__ = ("n", "labels", "_masks", "_rank", "_bases", "_circuits", "_flats")

    def __init__(
        self,
        n: int,
        bases: Iterable[SubsetLike],
        labels: Sequence[str] | None = None,
    ):
        masks = [as_mask(b, n) for b in bases]
        self._init_from_masks(n, masks, labels)

    @classmethod
    def _from_masks(
        cls, n: int, masks: Iterable[int], labels: Sequence[str] | None = None
    ) -> "Matroid":
        m = cls.__new__(cls)
        m._init_from_masks(n, list(masks), labels)
        return m

    def _init_from_masks(
        self, n: int, masks: list[int], labels: Sequence[str] | None
    ) -> None:
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        dedup = sorted(set(masks))
        if not dedup:
            raise ValueError("a matroid needs at least one basis")
        cards = {m.bit_count() for m in dedup}
        if len(cards) != 1:
            raise ValueError(f"bases must be equicardinal, got sizes {sorted(cards)}")
        if dedup[-1] >> n:
            raise ValueError("basis contains an index outside the ground set")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self.labels = labels
        self._masks = tuple(dedup)
        self._rank = cards.pop()
        self._bases = None
        self._circuits = None
        self._flats = None

    # -- structure -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def basis_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def bases(self) -> tuple[GroundSubset, ...]:
        if self._bases is None:
            self._bases = tuple(GroundSubset(m, self.n) for m in self._masks)
        return self._bases

    def _full(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self._rank}, bases={len(self._masks)})"

    # -- validity ------------------------------------------------------------

    def is_valid(self) -> bool:
        """Check the basis-exchange axiom over all ordered basis pairs."""
        base_set = set(self._masks)
        if not base_set:
            return False
        for b1 in self._masks:
            for b2 in self._masks:
                if b1 == b2:
                    continue
                others = b2 & ~b1
                for e in iter_bits(b1 & ~b2):
                    removed = b1 ^ (1 << e)
                    if not any(removed | (1 << f) in base_set for f in iter_bits(others)):
                        return False
        return True

    # -- rank / closure ------------------------------------------------------

    def _rank_of_mask(self, s: int) -> int:
        return max((b & s).bit_count() for b in self._masks)

    def rank_of(self, subset: SubsetLike) -> int:
        """Rank of a subset: the size of its largest intersection with a basis."""
        return self._rank_of_mask(as_mask(subset, self.n))

    def _meeting(self, s: int) -> list[int]:
        """The bases B with |B & S| = r(S), in one pass. An element x outside S
        raises the rank exactly when one of these bases contains x."""
        best = -1
        out: list[int] = []
        for b in self._masks:
            k = (b & s).bit_count()
            if k > best:
                best, out = k, [b]
            elif k == best:
                out.append(b)
        return out

    def _closure_mask(self, s: int) -> int:
        union = 0
        for b in self._meeting(s):
            union |= b
        return s | self._full() & ~union

    def closure(self, subset: SubsetLike) -> GroundSubset:
        """Elements whose addition does not raise the rank of the subset."""
        return GroundSubset(self._closure_mask(as_mask(subset, self.n)), self.n)

    def is_dependent(self, subset: SubsetLike) -> bool:
        s = as_mask(subset, self.n)
        return self._rank_of_mask(s) < s.bit_count()

    def independents(self, k: int) -> list[GroundSubset]:
        """All independent k-subsets, in lexicographic order."""
        if k < 0:
            raise ValueError("subset size must be nonnegative")
        out = []
        for combo in combinations(range(self.n), k):
            mask = mask_from_indices(combo, self.n)
            if self._rank_of_mask(mask) == k:
                out.append(GroundSubset(mask, self.n))
        return out

    # -- circuits, loops, coloops --------------------------------------------

    def _exchange(self, base_set: set[int], b: int, e: int) -> int:
        """e plus each f across the basis b with b ^ e ^ f in base_set: the
        fundamental circuit C(e, b) when e is outside b, the fundamental
        cocircuit C*(e, b) when e is in b (Oxley, §1.2 and §2.1)."""
        ebit = 1 << e
        swap, out = b ^ ebit, ebit
        rest = self._full() ^ b if b & ebit else b
        while rest:  # low bits, with no generator: this loop is most of the work
            low = rest & -rest
            if swap ^ low in base_set:
                out |= low
            rest ^= low
        return out

    def circuits(self) -> tuple[GroundSubset, ...]:
        """All circuits of a valid basis family, in (size, elements) order: the
        fundamental circuits C(e, b) over every basis b and e outside b. Each is
        a circuit, and a circuit C is C(e, b) for any e in C and any basis b
        containing C - {e}; loops come out as one-element circuits."""
        if self._circuits is None:
            base_set = set(self._masks)
            full = self._full()
            found = {
                self._exchange(base_set, b, e) for b in self._masks for e in iter_bits(full ^ b)
            }
            self._circuits = tuple(GroundSubset(m, self.n) for m in sorted(found, key=canon_key))
        return self._circuits

    def loops(self) -> GroundSubset:
        return GroundSubset(self._closure_mask(0), self.n)

    def coloops(self) -> GroundSubset:
        inter = self._full()
        for b in self._masks:
            inter &= b
        return GroundSubset(inter, self.n)

    # -- flats ----------------------------------------------------------------

    def flats(self) -> tuple[tuple[GroundSubset, ...], ...]:
        """Flats grouped by rank, built level-by-level from the closure of the
        empty set: each rank-(k+1) flat is closure(F + {x}) for some rank-k
        flat F and x outside F, so the sweep is output-sensitive."""
        if self._flats is None:
            full = self._full()
            levels = []
            current = {self._closure_mask(0)}
            levels.append(self._sorted_level(current))
            for _ in range(self._rank):
                nxt = set()
                for f in current:
                    for x in iter_bits(full & ~f):
                        nxt.add(self._closure_mask(f | (1 << x)))
                current = nxt
                levels.append(self._sorted_level(current))
            self._flats = tuple(levels)
        return self._flats

    def _sorted_level(self, masks: set[int]) -> tuple[GroundSubset, ...]:
        ordered = sorted(masks, key=lambda m: tuple(iter_bits(m)))
        return tuple(GroundSubset(m, self.n) for m in ordered)

    def fvector(self) -> list[int]:
        return [len(level) for level in self.flats()]

    def hyperplanes(self) -> tuple[GroundSubset, ...]:
        """The flats of rank r - 1, in (size, elements) order: the complements
        E - C*(e, b) = cl(b - {e}) of the fundamental cocircuits over every
        basis b and every e in b."""
        base_set = set(self._masks)
        full = self._full()
        found = {full ^ self._exchange(base_set, b, e) for b in self._masks for e in iter_bits(b)}
        return tuple(GroundSubset(m, self.n) for m in sorted(found, key=canon_key))

    # -- labels ----------------------------------------------------------------

    def labels_of(self, indices: Iterable[int]) -> list[str]:
        if self.labels is None:
            raise ValueError("matroid has no labels")
        out = []
        for i in indices:
            if not 0 <= i < self.n:
                raise ValueError(f"index {i} out of range for ground set of size {self.n}")
            out.append(self.labels[i])
        return out

    def indices_of(self, labels: Iterable[str]) -> list[int]:
        if self.labels is None:
            raise ValueError("matroid has no labels")
        out = []
        for lbl in labels:
            try:
                out.append(self.labels.index(lbl))
            except ValueError:
                raise ValueError(f"unknown label {lbl!r}") from None
        return out
