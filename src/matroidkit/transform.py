"""Duality, restriction, deletion, contraction, and general minors."""

from __future__ import annotations

from typing import Iterable

from .core import Matroid, SubsetLike, as_mask
from .subsets import GroundSubset, iter_bits


def dual(matroid: Matroid) -> Matroid:
    """Matroid on the same ground set whose bases are the basis complements."""
    full = (1 << matroid.n) - 1
    return Matroid._from_masks(
        matroid.n, [full ^ b for b in matroid.basis_masks], matroid.labels
    )


def _reindex(matroid: Matroid, keep: int, masks: Iterable[int]) -> Matroid:
    """The matroid on the elements of `keep`, re-indexed densely to 0..|keep|-1,
    whose bases are the given masks (each a subset of `keep`), labels carried over."""
    elems = list(iter_bits(keep))
    pos = {orig: i for i, orig in enumerate(elems)}
    new_masks = []
    for b in masks:
        m = 0
        for e in iter_bits(b):
            m |= 1 << pos[e]
        new_masks.append(m)
    labels = None
    if matroid.labels is not None:
        labels = tuple(matroid.labels[i] for i in elems)
    return Matroid._from_masks(len(elems), new_masks, labels)


def restriction(matroid: Matroid, subset: SubsetLike) -> Matroid:
    """Restrict to a subset S, re-indexed densely to 0..|S|-1, labels carried
    over: the bases are the intersections B & S of size r(S)."""
    s = as_mask(subset, matroid.n)
    r = matroid._rank_of_mask(s)
    return _reindex(
        matroid, s, (b & s for b in matroid.basis_masks if (b & s).bit_count() == r)
    )


def deletion(matroid: Matroid, subset: SubsetLike) -> Matroid:
    s = as_mask(subset, matroid.n)
    full = (1 << matroid.n) - 1
    return restriction(matroid, GroundSubset(full & ~s, matroid.n))


def contraction(matroid: Matroid, subset: SubsetLike) -> Matroid:
    """Contract a subset X: the bases are B - X over the bases B with
    |B & X| = r(X), re-indexed densely over E - X, labels carried over."""
    x = as_mask(subset, matroid.n)
    r = matroid._rank_of_mask(x)
    keep = matroid._full() & ~x
    return _reindex(
        matroid,
        keep,
        (b & keep for b in matroid.basis_masks if (b & x).bit_count() == r),
    )


def minor(matroid: Matroid, contract: SubsetLike, delete: SubsetLike) -> Matroid:
    """The minor (M / X) \\ Y with both X and Y given in M's own indices."""
    x = as_mask(contract, matroid.n)
    y = as_mask(delete, matroid.n)
    if x & y:
        raise ValueError("contract and delete sets overlap")
    contracted = contraction(matroid, GroundSubset(x, matroid.n))
    remaining = [i for i in range(matroid.n) if not x >> i & 1]
    pos = {orig: i for i, orig in enumerate(remaining)}
    y_new = GroundSubset.of((pos[e] for e in iter_bits(y)), contracted.n)
    return deletion(contracted, y_new)
