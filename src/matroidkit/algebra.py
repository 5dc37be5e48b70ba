"""Basis-polytope vertex data and the graded flat algebra with its Hilbert function.

The graded algebra of a loopless matroid is the quotient of the polynomial
ring on the nonempty proper flats by (1) differences of the linear forms
sum-of-variables-containing-an-element, anchored at element 0, and (2) the
products of incomparable flat variables.
"""

from __future__ import annotations

from .construct import _parts
from .core import Matroid
from .subsets import Frozen, GroundSubset


class PolytopeVertices(Frozen):
    """Indicator vectors of the bases, with the exact affine dimension."""

    __slots__ = ("ambient_dim", "vertices", "dim")
    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]
    dim: int


def polytope_vertices(matroid: Matroid) -> PolytopeVertices:
    """One 0/1 vertex per basis. For a valid basis family with c connected
    components, loops and coloops included, the polytope has dimension n - c
    (Feichtner and Sturmfels, Portugaliae Math. 2005, Prop. 2.4)."""
    n = matroid.n
    verts = tuple(tuple(b >> i & 1 for i in range(n)) for b in matroid.basis_masks)
    return PolytopeVertices(n, verts, n - len(_parts(matroid)))


class ChowPresentation(Frozen):
    """Variables (nonempty proper flats in (rank, lex) order), the n-1 anchored
    linear generators as sparse (variable, coefficient) vectors, and the
    incomparable-pair quadric generators as variable-index pairs."""

    __slots__ = ("flats", "linear_gens", "quadric_gens")
    flats: tuple[GroundSubset, ...]
    linear_gens: tuple[tuple[tuple[int, int], ...], ...]
    quadric_gens: tuple[tuple[int, int], ...]


def chow_presentation(matroid: Matroid) -> ChowPresentation:
    if len(matroid.loops()) != 0:
        raise ValueError("the graded flat algebra requires a loopless matroid")
    levels = matroid.flats()
    flats = [f for level in levels[1:-1] for f in level]
    masks = [f.bits for f in flats]
    n = matroid.n

    gens = []
    for other in range(1, n):
        terms = []
        for vi, fm in enumerate(masks):
            c = (fm & 1) - (fm >> other & 1)
            if c:
                terms.append((vi, c))
        gens.append(tuple(terms))

    quads = []
    for a in range(len(masks)):
        ma = masks[a]
        for b in range(a + 1, len(masks)):
            mb = masks[b]
            if ma & ~mb and mb & ~ma:
                quads.append((a, b))
    return ChowPresentation(tuple(flats), tuple(gens), tuple(quads))


def chow_hilbert(matroid: Matroid, degree: int, *, exact: bool = False) -> int:
    """Dimension of the degree-d graded piece of the flat algebra.

    Feichtner-Yuzvinsky (Invent. Math. 2004) give a Groebner basis with monic
    leading terms over the integers, so the Hilbert function does not depend
    on the field. It counts the basis monomials x_F1^a1 ... x_Fk^ak over the
    chains of flats empty < F1 < ... < Fk with 1 <= a_i <= rk F_i - rk F_(i-1) - 1.
    ending[F][e] counts the chains that end at F with exponent sum e, and the
    value is the sum of ending[F][degree] over the nonempty flats F.

    exact is accepted and ignored, since the count holds in every field;
    bench/inprocess.py still passes it.
    """
    if len(matroid.loops()) != 0:
        raise ValueError("the graded flat algebra requires a loopless matroid")
    r = matroid.rank
    top = max(r - 1, 0)  # rank 0: the ring is the integers, in degree 0
    if not 0 <= degree <= top:
        raise ValueError(f"degree must lie in [0, {top}], got {degree}")
    # the exponents along a chain sum to at most rk F_k - k, so in degree r - 1
    # only E itself counts, as in degree 0 only the empty chain does
    if degree in (0, top):
        return 1
    # (rank, mask, ending) of the flats that can precede a flat of higher rank
    # with a positive exponent; rank-1 flats end no chain, so they never enter
    done: list[tuple[int, int, list[int]]] = [(0, 0, [1] + [0] * degree)]
    total = 0
    for k, level in enumerate(matroid.flats()[2:], start=2):
        added = []
        for flat in level:
            counts = [0] * (degree + 1)
            for j, g, ending in done:
                if j <= k - 2 and g & ~flat.bits == 0:
                    for e, c in enumerate(ending):
                        for a in range(e + 1, min(e + k - j - 1, degree) + 1):
                            counts[a] += c
            total += counts[degree]
            added.append((k, flat.bits, counts))
        done.extend(added)
    return total
