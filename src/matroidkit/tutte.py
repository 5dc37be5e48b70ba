"""Tutte polynomials via deletion-contraction, and the chromatic specialization."""

from __future__ import annotations

from typing import Iterable

from .core import Matroid
from .graphs import Graph


class UnivarPoly:
    """Integer univariate polynomial; coefficients stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UnivarPoly") -> "UnivarPoly":
        width = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(width)
        )

    def __mul__(self, other: "UnivarPoly") -> "UnivarPoly":
        if not self.coeffs or not other.coeffs:
            return UnivarPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UnivarPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return self.render()

    def render(self, var: str = "k") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def _divide_by_root(self, root: int) -> "UnivarPoly | None":
        """Exact synthetic division by (x - root); None if root is not a root."""
        if self.evaluate(root) != 0:
            return None
        quotient = []
        carry = 0
        for c in reversed(self.coeffs):
            carry = carry * root + c
            quotient.append(carry)
        quotient.pop()  # final carry is the (zero) remainder
        return UnivarPoly(reversed(quotient))

    def factored(self, var: str = "k") -> str:
        """Display factored over small integer roots (root-stripping)."""
        if not self.coeffs:
            return "0"
        rem = self
        roots: list[tuple[int, int]] = []
        for root in range(0, self.degree + 1):
            mult = 0
            while rem.degree >= 1:
                divided = rem._divide_by_root(root)
                if divided is None:
                    break
                rem = divided
                mult += 1
            if mult:
                roots.append((root, mult))
        pieces = []
        if rem.degree >= 1:
            pieces.append(f"({rem.render(var)})")
        elif rem.coeffs and rem.coeffs[0] != 1:
            pieces.append(str(rem.coeffs[0]))
        for root, mult in roots:
            base = var if root == 0 else f"({var} - {root})"
            pieces.append(base + (f"^{mult}" if mult > 1 else ""))
        return "".join(pieces) if pieces else "1"


class BivarPoly:
    """Bivariate integer polynomial stored as {(i, j): coefficient}, zeros absent."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[tuple[int, int], int]] | dict | None = None):
        data: dict[tuple[int, int], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                if c:
                    data[key] = data.get(key, 0) + c
        self._terms = {k: v for k, v in data.items() if v}

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "BivarPoly":
        return cls({(i, j): c})

    def coeff(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        return [(i, j, c) for (i, j), c in sorted(self._terms.items())]

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return BivarPoly(out)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivarPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))
        parts = []
        for (i, j), c in ordered:
            factors = []
            if i:
                factors.append("x" + (f"^{i}" if i > 1 else ""))
            if j:
                factors.append("y" + (f"^{j}" if j > 1 else ""))
            body = "*".join(factors)
            if not body:
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}{body}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def tutte_polynomial(matroid: Matroid) -> BivarPoly:
    """Deletion-contraction on the smallest non-loop, non-coloop element, run
    depth first on an explicit stack of (ground, bases) states. A state that
    is all coloops and loops is a leaf and counts once towards the
    coefficient of x^(#coloops) * y^(#loops).

    There is no memo: every state is reached by exactly one sequence of
    deletions and contractions, so no state would ever be looked up twice."""
    leaves: dict[tuple[int, int], int] = {}
    stack = [((1 << matroid.n) - 1, list(matroid.basis_masks))]
    while stack:
        ground, bases = stack.pop()
        union = 0
        inter = ground
        for b in bases:
            union |= b
            inter &= b
        rest = union & ~inter
        if rest == 0:
            key = (inter.bit_count(), (ground & ~union).bit_count())
            leaves[key] = leaves.get(key, 0) + 1
            continue
        bit = rest & -rest
        stack.append((ground ^ bit, [b ^ bit for b in bases if b & bit]))
        stack.append((ground ^ bit, [b for b in bases if not b & bit]))
    return BivarPoly(leaves)


def tutte_evaluate(matroid: Matroid, x: int, y: int) -> int:
    return tutte_polynomial(matroid).evaluate(x, y)


def chromatic_polynomial(graph: Graph) -> UnivarPoly:
    """Proper-coloring count of a graph as a polynomial in the color count:
    (-1)^r * k^c * T(1 - k, 0) with c components and graph rank r = v - c.
    T(1 - k, 0) is read off the y^0 coefficients by Horner's rule in 1 - k."""
    from .construct import graphic_matroid

    m = graphic_matroid(graph)
    t = tutte_polynomial(m)
    body: list[int] = []  # lowest degree first
    for i in range(m.rank, -1, -1):
        body = [a - b for a, b in zip(body + [0], [0] + body)]  # times (1 - k)
        body[0] += t.coeff(i, 0)
    sign = -1 if m.rank % 2 else 1
    return UnivarPoly([0] * (graph.v - m.rank) + [sign * c for c in body])
