"""Duality, restriction, deletion, contraction, and general minors."""

from __future__ import annotations

from typing import Iterable

from .core import Matroid, SubsetLike, as_mask
from .subsets import iter_bits


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


def _minor(matroid: Matroid, x: int, y: int) -> Matroid:
    """(M / X) \\ Y for disjoint masks X and Y. With keep = E - X - Y, the bases
    are the largest of the sets B & keep over the bases B with |B & X| = r(X),
    re-indexed densely over keep, labels carried over. When Y is empty the
    sets all have size r(M) - r(X), so the size filter is skipped."""
    keep = matroid._full() & ~(x | y)
    masks = [b & keep for b in matroid._meeting(x)]
    if y:
        top = max(b.bit_count() for b in masks)
        masks = [b for b in masks if b.bit_count() == top]
    return _reindex(matroid, keep, masks)


def restriction(matroid: Matroid, subset: SubsetLike) -> Matroid:
    """Restrict to a subset S, re-indexed densely to 0..|S|-1, labels carried
    over: the bases are the intersections B & S of size r(S)."""
    return _minor(matroid, 0, matroid._full() & ~as_mask(subset, matroid.n))


def deletion(matroid: Matroid, subset: SubsetLike) -> Matroid:
    return _minor(matroid, 0, as_mask(subset, matroid.n))


def contraction(matroid: Matroid, subset: SubsetLike) -> Matroid:
    """Contract a subset X: the bases are B - X over the bases B with
    |B & X| = r(X), re-indexed densely over E - X, labels carried over."""
    return _minor(matroid, as_mask(subset, matroid.n), 0)


def minor(matroid: Matroid, contract: SubsetLike, delete: SubsetLike) -> Matroid:
    """The minor (M / X) \\ Y with both X and Y given in M's own indices."""
    x = as_mask(contract, matroid.n)
    y = as_mask(delete, matroid.n)
    if x & y:
        raise ValueError("contract and delete sets overlap")
    return _minor(matroid, x, y)
