"""Duality, restriction, deletion, contraction, and general minors."""

from __future__ import annotations

from typing import Iterable

from .core import Matroid
from .subsets import SubsetLike, iter_bits, mask_from_indices


def dual(matroid: Matroid) -> Matroid:
    """Matroid on the same ground set whose bases are the basis complements."""
    full = (1 << matroid.n) - 1
    return Matroid._from_masks(
        matroid.n, [full ^ b for b in matroid.basis_masks], matroid.labels
    )


def _reindex(matroid: Matroid, keep: int, masks: Iterable[int]) -> Matroid:
    """The matroid on the elements of `keep`, re-indexed densely to 0..|keep|-1,
    whose bases are the given masks (each a subset of `keep`), labels carried over.
    Each run of consecutive kept elements moves down as one block, by the
    number of dropped elements below it, so a mask costs one step per run it
    meets."""
    run_of = [None] * matroid.n  # kept element -> (its run's bits, how far the run moves)
    rest, placed = keep, 0
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)  # the carry clears exactly the lowest run
        start, length = low.bit_length() - 1, run.bit_count()
        run_of[start : start + length] = [(run, start - placed)] * length
        rest ^= run
        placed += length
    new_masks = []
    for b in masks:
        m = 0
        while b:
            run, shift = run_of[(b & -b).bit_length() - 1]
            m |= (b & run) >> shift
            b &= ~run
        new_masks.append(m)
    labels = None
    if matroid.labels is not None:
        labels = tuple(matroid.labels[i] for i in iter_bits(keep))
    return Matroid._from_masks(placed, new_masks, labels)


def _minor(matroid: Matroid, x: int, y: int) -> Matroid:
    """(M / X) \\ Y for disjoint masks X and Y: the largest of the sets
    B & keep, keep = E - X - Y, over the bases B that contain a basis of X
    grown by `_grow`, re-indexed densely over keep, labels carried over.
    Without Y they all have size r(M) - r(X), so the size filter is skipped."""
    keep = matroid._full() & ~(x | y)
    alive = bin(matroid._grow(x)[0])[:1:-1]  # position i is basis i
    masks = [b & keep for b, bit in zip(matroid.basis_masks, alive) if bit == "1"]
    if y:
        top = max(b.bit_count() for b in masks)
        masks = [b for b in masks if b.bit_count() == top]
    return _reindex(matroid, keep, masks)


def restriction(matroid: Matroid, subset: SubsetLike) -> Matroid:
    """Restrict to a subset S, re-indexed densely to 0..|S|-1, labels carried
    over: the bases are the intersections B & S of size r(S)."""
    return _minor(matroid, 0, matroid._full() & ~mask_from_indices(subset, matroid.n))


def deletion(matroid: Matroid, subset: SubsetLike) -> Matroid:
    return _minor(matroid, 0, mask_from_indices(subset, matroid.n))


def contraction(matroid: Matroid, subset: SubsetLike) -> Matroid:
    """Contract a subset X: the bases are B - X over the bases B that contain
    a basis of X, re-indexed densely over E - X, labels carried over."""
    return _minor(matroid, mask_from_indices(subset, matroid.n), 0)


def minor(matroid: Matroid, contract: SubsetLike, delete: SubsetLike) -> Matroid:
    """The minor (M / X) \\ Y with both X and Y given in M's own indices."""
    x = mask_from_indices(contract, matroid.n)
    y = mask_from_indices(delete, matroid.n)
    if x & y:
        raise ValueError("contract and delete sets overlap")
    return _minor(matroid, x, y)
