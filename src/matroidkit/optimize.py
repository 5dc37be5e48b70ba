"""Maximum-weight basis selection by the matroid greedy rule."""

from __future__ import annotations

from typing import Sequence

from .core import Matroid


def greedy(matroid: Matroid, weights: Sequence) -> list[int]:
    """Grow a basis one element at a time, always taking the heaviest element
    whose addition keeps the set independent, ties broken by smallest index.
    One pass in stable descending weight order does this, since an element
    skipped as spanned stays spanned as the chosen set grows.

    Returns the chosen indices in selection order. Weights may be ints,
    Fractions, or floats (they only need to compare); negative weights are
    fine since the result must be a full basis either way.
    """
    if len(weights) != matroid.n:
        raise ValueError(f"expected {matroid.n} weights, got {len(weights)}")
    col = matroid._columns()
    alive, order = (1 << len(matroid.basis_masks)) - 1, []  # alive: the bases holding order
    for e in sorted(range(matroid.n), key=weights.__getitem__, reverse=True):
        if alive & col[e]:
            alive &= col[e]
            order.append(e)
    return order
