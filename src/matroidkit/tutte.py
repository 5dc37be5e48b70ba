"""Tutte polynomials via deletion-contraction, and the chromatic specialization."""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

from .core import Matroid

if TYPE_CHECKING:
    from .graphs import Graph


def _power(base: str, exp: int) -> str:
    """base^exp, with the exponent 1 left off and "" for exp = 0."""
    return "" if exp == 0 else base + (f"^{exp}" if exp > 1 else "")


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Nonzero multiples c * monomial as a signed sum, "0" when there are none.
    A coefficient of magnitude 1 is left off unless the monomial is empty."""
    parts = []
    for c, mono in terms:
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + ("" if abs(c) == 1 and mono else str(abs(c))) + mono)
    return " ".join(parts) or "0"


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

    def render(self) -> str:
        cs = self.coeffs
        return _signed_sum((cs[i], _power("k", i)) for i in reversed(range(len(cs))) if cs[i])

    __str__ = render

    def _divide_by_root(self, root: int) -> "UnivarPoly | None":
        """Exact synthetic division by (x - root); None if root is not a root."""
        quotient = []
        carry = 0
        for c in reversed(self.coeffs):
            carry = carry * root + c
            quotient.append(carry)
        if quotient.pop():  # the final carry is the remainder
            return None
        return UnivarPoly(reversed(quotient))

    def factored(self) -> str:
        """Display factored over the integer roots 0..degree (root-stripping).
        The zero roots are the low zero coefficients. A positive root divides
        the constant term of what remains (rational root theorem), and none is
        left once the coefficients all have one sign (Descartes' rule of signs)."""
        if not self.coeffs:
            return "0"
        zeros = next(i for i, c in enumerate(self.coeffs) if c)
        rem = UnivarPoly(self.coeffs[zeros:])
        roots: list[tuple[int, int]] = [(0, zeros)] if zeros else []
        mixed = min(rem.coeffs) < 0 < max(rem.coeffs)
        for root in range(1, self.degree + 1):
            if not mixed or root > abs(rem.coeffs[0]):
                break
            mult = 0
            while rem.coeffs[0] % root == 0 and (q := rem._divide_by_root(root)) is not None:
                rem, mult = q, mult + 1
            if mult:
                roots.append((root, mult))
                mixed = min(rem.coeffs) < 0 < max(rem.coeffs)
        pieces = []
        if rem.degree >= 1:
            pieces.append(f"({rem.render()})")
        elif rem.coeffs[0] != 1:  # a unit -1 before a root factor is its sign
            pieces.append("-" if rem.coeffs[0] == -1 and roots else str(rem.coeffs[0]))
        for root, mult in roots:
            pieces.append(_power("k" if root == 0 else f"(k - {root})", mult))
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
        ordered = sorted(self._terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))
        return _signed_sum(
            (c, "*".join(p for p in (_power("x", i), _power("y", j)) if p)) for (i, j), c in ordered
        )


def tutte_polynomial(matroid: Matroid) -> BivarPoly:
    """Deletion-contraction as one walk of the ascending basis list B. A state
    is a slice B[lo:hi], the minor whose bases are its members less the
    contracted elements. The members agree above the top bit t of
    B[lo] ^ B[hi-1], so each element above t is in all of them or in none, a
    coloop or a loop of the state, while t, in B[hi-1] but not in B[lo], is
    neither: a valid branch element. The members holding t are those from
    B[hi-1] & -t on, so the delete and contract halves are the two sides of
    one bisection, each a slice again. A one-basis slice is a leaf: it adds
    one to the coefficient of x^(r - #contracted) * y^(n - r - #deleted),
    keyed (n + 1) * i + j for x^i * y^j. 2|B| - 1 states, and no memo."""
    bases, n, r = matroid.basis_masks, matroid.n, matroid.rank
    w = n + 1
    leaves: dict[int, int] = {}
    stack = [(0, len(bases), w * r + n - r)]
    while stack:
        lo, hi, key = stack.pop()
        while hi - lo > 1:  # push the delete half, walk on into the contract half
            last = bases[hi - 1]
            top = 1 << (bases[lo] ^ last).bit_length() - 1
            mid = bisect_left(bases, last & -top, lo, hi)
            stack.append((lo, mid, key - 1))
            lo, key = mid, key - w
        leaves[key] = leaves.get(key, 0) + 1
    return BivarPoly((divmod(key, w), c) for key, c in leaves.items())


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
