"""The bases-backed matroid type and its cryptomorphic queries."""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import combinations, compress, repeat
from operator import and_, or_, rshift
from typing import Iterable, Sequence

from . import subsets
from .subsets import GroundSubset, SubsetLike, _subsets_of, iter_bits, k_subsets, mask_from_indices

# _DIGITS[k] maps each byte to the ASCII digit of its bit k, and _REVERSED to
# its bits in reverse order (multiply, mask, modulo 1023).
_DIGITS = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]
_REVERSED = bytes((i * 0x0202020202 & 0x010884422010) % 1023 for i in range(256))


def _in_order(masks: Iterable[int], n: int, by_size: bool = False) -> tuple[GroundSubset, ...]:
    """The sets as GroundSubsets in the order of their ascending element
    tuples, by size first when by_size. The key, made in C-level map passes,
    is the mask bit-reversed over whole bytes with every bit after its last
    member set: where two tuples first differ, the one holding the element
    keys higher, and a set ties only with its extensions by the elements right
    after its last, which a size sort before the descending key sort (by_size:
    after it) keeps behind the set."""
    w = (n + 7) >> 3
    ordered = list(masks) if by_size else sorted(masks, key=int.bit_count)
    packed = map(int.to_bytes, ordered, repeat(w), repeat("little"))
    mirrored = map(int.from_bytes, map(bytes.translate, packed, repeat(_REVERSED)), repeat("big"))
    tails = map(rshift, repeat((1 << 8 * w) - 1), map(int.bit_length, ordered))
    ordered.sort(key=dict(zip(ordered, map(or_, mirrored, tails))).__getitem__, reverse=True)
    if by_size:
        ordered.sort(key=int.bit_count)  # stable: element order within each size
    return tuple(_subsets_of(ordered, n))


def _fundamental_circuits(masks: Sequence[int], full: int) -> set[int]:
    """The distinct fundamental circuits C(e, b) = e + {f in b : b - f + e in
    masks}, over every b in masks and every e outside b in the ground set
    full = 2^n - 1 (Oxley, §1.2). On the complements of masks they are the
    fundamental cocircuits, valid family or not.

    C(e, b) is the set of x in k = b + e with k - x in masks, so each member
    m ORs every x outside it into the value under the key m + x. A member
    under a key k of bit length L is k less its top element, so shorter than
    L, or holds that element, so of length L. The keys are made one length
    at a time, from the members below that length and those of it, so only
    one length's keys are held at once."""
    # Timsort is linear on the stored ascending bases and their descending complements.
    ordered, found, start = sorted(masks), set(), 0
    for length in range(1, full.bit_length() + 1):
        top = 1 << length - 1
        stop = bisect_left(ordered, top << 1, start)
        keys = dict.fromkeys([m | top for m in ordered[:start]], top)
        for m in ordered[start:stop]:
            rest = m ^ (top << 1) - 1
            while rest:
                bit = rest & -rest
                key = m | bit
                keys[key] = keys.get(key, 0) | bit
                rest ^= bit
        found.update(keys.values())
        start = stop
    return found


class Matroid:
    """A matroid on {0, ..., n-1}, represented internally by its list of bases.

    Construction checks only that the basis family is nonempty and
    equicardinal and that no basis repeats an index; the full exchange check
    is the separate `is_valid` call.
    Immutable under Frozen's guards; the memo slots `_cols` and `_flats` are
    filled once, with pure functions of (n, bases), so a duplicated concurrent
    fill is harmless. Labels are display-only; all computation uses indices.
    """

    __slots__ = ("n", "labels", "_masks", "_rank", "_flats", "_cols")
    __setattr__ = subsets.Frozen.__setattr__
    __delattr__ = subsets.Frozen.__delattr__

    def __init__(
        self,
        n: int,
        bases: Iterable[SubsetLike],
        labels: Sequence[str] | None = None,
    ):
        bases = list(bases)
        try:
            count = sum(map(len, bases))
        except TypeError:  # a basis given as a one-pass iterable
            bases = [b if isinstance(b, GroundSubset) else tuple(b) for b in bases]
            count = sum(map(len, bases))
        masks = list(map(mask_from_indices, bases, repeat(n)))
        self._init_from_masks(n, masks, labels)
        if count != self._rank * len(masks):  # a repeated index leaves fewer bits than indices
            twice = next(b for b, m in zip(bases, masks) if m.bit_count() != len(b))
            raise ValueError(f"basis {twice} repeats an index")

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
        _set_n(self, n)
        _set_labels(self, labels)
        _set_masks(self, tuple(dedup))
        _set_rank(self, cards.pop())
        _set_flats(self, None)
        _set_cols(self, None)

    # -- structure -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def basis_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def bases(self) -> tuple[GroundSubset, ...]:
        return tuple(_subsets_of(self._masks, self.n))

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

    def __reduce__(self):  # unpickling a slotted object would call the guarded setattr
        return Matroid._from_masks, (self.n, self._masks, self.labels)

    # -- validity ------------------------------------------------------------

    def is_valid(self) -> bool:
        """Check the basis-exchange axiom over all ordered basis pairs."""
        base_set = set(self._masks)
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

    def _columns(self) -> list[int]:
        """col[e]: the bitmask over basis positions of the bases that contain e,
        built once. The bases are packed w bytes apiece, so column e is the
        stride slice of byte e // 8, read as binary digits of bit e % 8."""
        if self._cols is None:
            w = (self.n + 7) >> 3
            packed = b"".join(map(int.to_bytes, self._masks, repeat(w), repeat("little")))
            digits = (packed[e >> 3 :: w].translate(_DIGITS[e & 7]) for e in range(self.n))
            _set_cols(self, [int(d[::-1], 2) for d in digits])
        return self._cols

    def _grow(self, s: int) -> tuple[int, int]:
        """(alive, r): grow a basis I of S greedily against the columns. alive,
        the AND of the columns of I, marks the bases that contain I, and
        r = |I| = r(S). x is spanned by S exactly when alive & col[x] is 0."""
        col = self._columns()
        alive, r = (1 << len(self._masks)) - 1, 0
        while s:
            low = s & -s
            c = col[low.bit_length() - 1]
            if alive & c:
                alive &= c
                r += 1
            s ^= low
        return alive, r

    def rank_of(self, subset: SubsetLike) -> int:
        """Rank of a subset: the size of a basis of it grown greedily."""
        return self._grow(mask_from_indices(subset, self.n))[1]

    def _closure_mask(self, s: int) -> int:
        alive = self._grow(s)[0]
        for x, c in enumerate(self._columns()):
            if not alive & c:
                s |= 1 << x
        return s

    def closure(self, subset: SubsetLike) -> GroundSubset:
        """Elements whose addition does not raise the rank of the subset."""
        return GroundSubset(self._closure_mask(mask_from_indices(subset, self.n)), self.n)

    def is_dependent(self, subset: SubsetLike) -> bool:
        s = mask_from_indices(subset, self.n)
        return self._grow(s)[1] < s.bit_count()

    def independents(self, k: int) -> list[GroundSubset]:
        """All independent k-subsets, in lexicographic order. A k-subset is
        independent when the AND of its columns is nonzero; the columns are
        combined in the order in which `k_subsets` lists the sets."""
        if k < 0:
            raise ValueError("subset size must be nonnegative")
        if k > self._rank:  # every independent set lies in a basis
            return []
        if k == 0:
            return [GroundSubset(0, self.n)]
        alive = map(reduce, repeat(and_), combinations(self._columns(), k))
        return _subsets_of(list(compress(k_subsets(self.n, k), alive)), self.n)

    # -- circuits, loops, coloops --------------------------------------------

    def circuits(self) -> tuple[GroundSubset, ...]:
        """All circuits of a valid basis family, in (size, elements) order: the
        fundamental circuits C(e, b) over every basis b and e outside b. Each is
        a circuit, and a circuit C is C(e, b) for any e in C and any basis b
        containing C - {e}; loops come out as one-element circuits."""
        return _in_order(_fundamental_circuits(self._masks, self._full()), self.n, by_size=True)

    def loops(self) -> GroundSubset:
        return GroundSubset(self._closure_mask(0), self.n)

    def coloops(self) -> GroundSubset:
        every = (1 << len(self._masks)) - 1  # a coloop's column holds every basis
        coloops = sum(1 << e for e, c in enumerate(self._columns()) if c == every)
        return GroundSubset(coloops, self.n)

    # -- flats ----------------------------------------------------------------

    def flats(self) -> tuple[tuple[GroundSubset, ...], ...]:
        """Flats grouped by rank, built level-by-level from the closure of the
        empty set, each flat F held with alive, the bases that contain one
        basis I of F (every basis for cl(empty)); E is the one flat of full
        rank. For x outside F and ax = alive & col[x], y outside F + x is in
        the cover cl(F + x) exactly when ax & col[y] is 0, and no y is when
        ax == alive (x a coloop of M / F). I + x is a basis of the cover, so ax
        is its alive. The covers partition E - F, so each is skipped once found."""
        if self._flats is None:
            col, full = self._columns(), self._full()
            current = {self._closure_mask(0): (1 << len(self._masks)) - 1}
            levels = [_in_order(current, self.n)]
            for _ in range(self._rank - 1):
                nxt = {}
                for f, alive in current.items():
                    rest = full & ~f
                    while rest:
                        low = rest & -rest
                        ax = alive & col[low.bit_length() - 1]
                        cover = f | low
                        if ax != alive:
                            cover |= sum(1 << y for y in iter_bits(rest ^ low) if not ax & col[y])
                        nxt[cover] = ax
                        rest &= ~cover
                current = nxt
                levels.append(_in_order(current, self.n))
            if self._rank:
                levels.append(_in_order({full}, self.n))
            _set_flats(self, tuple(levels))
        return self._flats

    def fvector(self) -> list[int]:
        return [len(level) for level in self.flats()]

    def hyperplanes(self) -> tuple[GroundSubset, ...]:
        """The flats of rank r - 1, in (size, elements) order: the complements
        E - C*(e, b) = cl(b - {e}) of the fundamental cocircuits over every
        basis b and every e in b. C*(e, b) is the fundamental circuit
        C(e, E - b) of the dual, whose bases are the complements."""
        full = self._full()
        cocircuits = _fundamental_circuits(list(map(full.__xor__, self._masks)), full)
        return _in_order(map(full.__xor__, cocircuits), self.n, by_size=True)

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


# the slot setters, which skip the frozen __setattr__ on the hot constructor
_set_n, _set_labels, _set_masks, _set_rank, _set_flats, _set_cols = (
    getattr(Matroid, name).__set__ for name in Matroid.__slots__
)
