"""Basis-polytope vertex data and the graded flat algebra with its Hilbert function.

The graded algebra of a loopless matroid is the quotient of the polynomial
ring on the nonempty proper flats by (1) differences of the linear forms
sum-of-variables-containing-an-element, anchored at element 0, and (2) the
products of incomparable flat variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Matroid
from .linalg import ExactMatrix, is_prime, rank_rows_exact
from .subsets import GroundSubset

DEFAULT_PRIME = 1073741789


@dataclass(frozen=True, slots=True)
class PolytopeVertices:
    """Indicator vectors of the bases, with the exact affine dimension."""

    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]
    dim: int


def polytope_vertices(matroid: Matroid) -> PolytopeVertices:
    """One 0/1 vertex per basis; dimension is the rational rank of the
    differences against the first vertex."""
    n = matroid.n
    verts = [
        tuple(1 if b >> i & 1 else 0 for i in range(n)) for b in matroid.basis_masks
    ]
    diffs = [[vk[i] - verts[0][i] for i in range(n)] for vk in verts[1:]]
    dim = ExactMatrix(diffs, cols=n).rank() if diffs else 0
    return PolytopeVertices(n, tuple(verts), dim)


@dataclass(frozen=True, slots=True)
class ChowPresentation:
    """Variables (nonempty proper flats in (rank, lex) order), the n-1 anchored
    linear generators as sparse (variable, coefficient) vectors, and the
    incomparable-pair quadric generators as variable-index pairs."""

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


Monomial = tuple[tuple[int, int], ...]


def _chain_monomials(degree: int, supersets: list[list[int]], nvars: int) -> list[Monomial]:
    """Degree-d monomials whose variable support is a chain of flats.

    A monomial survives the quadric generators exactly when its support is
    pairwise comparable, i.e. a chain; chains are enumerated by walking the
    strict-containment DAG upward, distributing positive exponents as we go.
    """
    if degree == 0:
        return [()]
    out: list[Monomial] = []
    stack: list[tuple[int, int]] = []

    def walk(var: int, remaining: int) -> None:
        for exp in range(1, remaining + 1):
            stack.append((var, exp))
            rest = remaining - exp
            if rest == 0:
                out.append(tuple(stack))
            else:
                for nxt in supersets[var]:
                    walk(nxt, rest)
            stack.pop()

    for var in range(nvars):
        walk(var, degree)
    return out


def chow_hilbert(
    matroid: Matroid,
    degree: int,
    *,
    exact: bool = False,
    prime: int = DEFAULT_PRIME,
) -> int:
    """Dimension of the degree-d graded piece of the flat algebra.

    Monomials containing an incomparable pair are struck out directly by the
    quadric generators, and any linear-generator multiple whose monomial factor
    is itself struck out reduces to zero on what remains. The computation
    therefore counts chain-supported monomials and subtracts the rank of the
    chain-supported multiples of the linear generators; the rank runs over
    GF(prime) by default, or exactly over the rationals with exact=True.
    """
    pres = chow_presentation(matroid)
    r = matroid.rank
    if not 0 <= degree <= r - 1:
        raise ValueError(f"degree must lie in [0, {r - 1}], got {degree}")
    if degree == 0:
        return 1
    if not exact and not (2 <= prime < 2**31 and is_prime(prime)):
        raise ValueError(f"modulus {prime} is not a prime below 2^31")

    nvars = len(pres.flats)
    if nvars == 0:
        return 0
    masks = [f.bits for f in pres.flats]
    sizes = [m.bit_count() for m in masks]
    supersets = [
        [w for w in range(nvars) if w != v and masks[v] & ~masks[w] == 0]
        for v in range(nvars)
    ]
    comparable = [
        [masks[a] & ~masks[b] == 0 or masks[b] & ~masks[a] == 0 for b in range(nvars)]
        for a in range(nvars)
    ]

    columns = _chain_monomials(degree, supersets, nvars)
    col_index = {m: i for i, m in enumerate(columns)}

    def bump(mono: Monomial, var: int) -> Monomial:
        out = []
        placed = False
        for w, e in mono:
            if w == var:
                out.append((w, e + 1))
                placed = True
            else:
                out.append((w, e))
        if not placed:
            out.append((var, 1))
            out.sort(key=lambda t: sizes[t[0]])
        return tuple(out)

    rows: list[dict[int, int]] = []
    seen: set[frozenset] = set()
    for mono in _chain_monomials(degree - 1, supersets, nvars):
        support = [w for w, _ in mono]
        for gen in pres.linear_gens:
            row: dict[int, int] = {}
            for var, coeff in gen:
                if all(comparable[var][s] for s in support):
                    row[col_index[bump(mono, var)]] = coeff
            if row:
                key = frozenset(row.items())
                if key not in seen:
                    seen.add(key)
                    rows.append(row)

    return len(columns) - rank_rows_exact(rows, p=None if exact else prime)
