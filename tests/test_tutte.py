import time
from math import comb
from random import Random

from matroidkit import (
    BivarPoly,
    Matroid,
    UnivarPoly,
    chromatic_polynomial,
    complete_graph,
    direct_sum,
    dual,
    graph_from_edges,
    graphic_matroid,
    tutte_evaluate,
    tutte_polynomial,
    uniform_matroid,
)
from oracles import (
    brute_coloring_count,
    characteristic_by_moebius,
    random_linear_matroid,
    random_matroid,
    tutte_by_activities,
    tutte_by_corank_nullity,
    tutte_by_deletion_contraction,
)


def test_bivar_poly_arithmetic():
    x = BivarPoly.monomial(1, 0)
    y = BivarPoly.monomial(0, 1)
    p = (x + y) * (x + y)
    assert p.coeff(2, 0) == 1 and p.coeff(1, 1) == 2 and p.coeff(0, 2) == 1
    assert p.evaluate(2, 3) == 25
    assert BivarPoly({(0, 0): 0}) == BivarPoly()
    assert p.__eq__({(2, 0): 1, (1, 1): 2, (0, 2): 1}) is NotImplemented
    assert p != {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert hash(p) == hash(x * x + BivarPoly.monomial(1, 1, 2) + y * y) != hash(x + y)


def test_tutte_single_coloop():
    assert tutte_polynomial(Matroid(1, [[0]])) == BivarPoly.monomial(1, 0)


def test_tutte_uniform24(u24):
    # hand-expanded recurrence: U(2,4) -> x^2 + 2x + 2y + y^2
    t = tutte_polynomial(u24)
    assert t == BivarPoly({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})
    assert t.evaluate(1, 1) == 6


def test_tutte_m5_values(m5):
    assert tutte_evaluate(m5, 1, 1) == 125
    assert tutte_evaluate(m5, 2, 1) == 291
    assert tutte_evaluate(m5, 2, 0) == 120


def test_tutte_recurrence_holds_on_result(m4):
    from matroidkit import contraction, deletion

    t = tutte_polynomial(m4)
    skip = m4.loops().bits | m4.coloops().bits
    for e in range(m4.n):
        if skip >> e & 1:
            continue
        assert t == tutte_polynomial(deletion(m4, [e])) + tutte_polynomial(
            contraction(m4, [e])
        )


def test_tutte_dual_swaps_variables(m4, u24):
    for m in (m4, u24):
        t = tutte_polynomial(m)
        td = tutte_polynomial(dual(m))
        assert {(j, i): c for (i, j), c in t.terms().items()} == td.terms()


def test_tutte_direct_sum_multiplies(u24):
    k3 = uniform_matroid(2, 3)
    assert tutte_polynomial(direct_sum(u24, k3)) == tutte_polynomial(
        u24
    ) * tutte_polynomial(k3)


def test_tutte_matches_activity_oracle():
    rng = Random(3)
    for _ in range(25):
        m = random_matroid(rng, max_n=7)
        assert tutte_polynomial(m) == tutte_by_activities(m)


def test_tutte_matches_the_corank_nullity_expansion():
    """Whitney's sum over all subsets, on seeded random matroids up to 9 elements."""
    rng = Random(7)
    for _ in range(25):
        m = random_matroid(rng, max_n=9)
        assert tutte_polynomial(m) == tutte_by_corank_nullity(m)


def _relabeled(m: Matroid, rng: Random) -> Matroid:
    perm = list(range(m.n))
    rng.shuffle(perm)
    return Matroid(m.n, [[perm[e] for e in b.indices()] for b in m.bases])


def _with_loops_and_coloops(m: Matroid, loops: int, coloops: int) -> Matroid:
    """m with loops before its elements and coloops after them."""
    return direct_sum(direct_sum(uniform_matroid(0, loops), m), uniform_matroid(coloops, coloops))


def test_basis_masks_ascend_strictly():
    """The walk reads each state as a slice of the stored masks, so they must
    ascend strictly however the bases were given."""
    rng = Random(11)
    for _ in range(60):
        m = random_matroid(rng, max_n=8)
        given = [list(b.indices())[::-1] for b in m.bases] * 2
        rng.shuffle(given)
        for built in (m, dual(m), _relabeled(m, rng), Matroid(m.n, given)):
            masks = built.basis_masks
            assert all(a < b for a, b in zip(masks, masks[1:]))
        assert Matroid(m.n, given).basis_masks == m.basis_masks


def test_tutte_walk_matches_the_oracles():
    """The walk branches on the labels' top differing bit, so each seeded
    matroid is also checked under a shuffled labelling, and with loops and
    coloops added at either end of the labels (the dual swaps the ends)."""
    rng = Random(19)
    for _ in range(40):
        m = random_matroid(rng, max_n=7)
        t = tutte_by_deletion_contraction(m)
        assert t == tutte_by_activities(m) == tutte_by_corank_nullity(m)
        assert tutte_polynomial(m) == t
        assert tutte_polynomial(_relabeled(m, rng)) == t
        loops, coloops = rng.randint(0, 2), rng.randint(0, 2)
        padded = _with_loops_and_coloops(m, loops, coloops)
        padded_t = tutte_by_deletion_contraction(padded)
        assert padded_t == tutte_by_activities(padded) == t * BivarPoly.monomial(coloops, loops)
        for copy in (padded, _relabeled(padded, rng), dual(padded)):
            assert tutte_polynomial(copy) == tutte_by_deletion_contraction(copy)


def test_tutte_of_one_basis_matroids():
    for n in range(7):
        assert tutte_polynomial(uniform_matroid(0, n)) == BivarPoly.monomial(0, n)
        assert tutte_polynomial(uniform_matroid(n, n)) == BivarPoly.monomial(n, 0)
        m = Matroid(n, [range(0, n, 2)])
        assert tutte_polynomial(m) == tutte_by_deletion_contraction(m)


def test_tutte_of_mk6_matches_the_oracles():
    m = graphic_matroid(complete_graph(6))
    t = tutte_polynomial(m)
    assert t == tutte_by_deletion_contraction(m) == tutte_by_activities(m)
    assert t.evaluate(1, 1) == 1296  # Cayley: 6^4 spanning trees
    assert tutte_polynomial(_relabeled(m, Random(6))) == t


def _characteristic_from_tutte(m: Matroid) -> list[int]:
    """(-1)^r T(1 - t, 0), lowest degree first: the coefficient of t^k gathers
    t_(i,0) * C(i, k) * (-1)^k from each (1 - t)^i."""
    t, r = tutte_polynomial(m), m.rank
    return [(-1) ** (r + k) * sum(t.coeff(i, 0) * comb(i, k) for i in range(k, r + 1)) for k in range(r + 1)]


def test_characteristic_polynomial_two_ways():
    """The Tutte walk at y = 0 against the Moebius function of the lattice of
    flats, on M(K7) and on seeded matroids past the n <= 9 that the
    corank-nullity and activity oracles reach."""
    mk7 = graphic_matroid(complete_graph(7))
    falling = UnivarPoly((1,))
    for j in range(1, 7):
        falling = falling * UnivarPoly((-j, 1))
    assert characteristic_by_moebius(mk7) == list(falling.coeffs) == _characteristic_from_tutte(mk7)
    rng = Random(29)
    copies = [_relabeled(mk7, rng), _relabeled(mk7, rng)]
    for _ in range(30):
        copies.append(random_matroid(rng, max_n=12))
        copies.append(random_linear_matroid(rng, max_n=14))
    copies.append(_with_loops_and_coloops(copies[-1], 1, 2))
    assert sum(1 for m in copies if m.n > 9) >= 20 and any(m.loops().bits for m in copies)
    for m in copies:
        assert characteristic_by_moebius(m) == _characteristic_from_tutte(m)


def uniform_tutte(r: int, n: int) -> BivarPoly:
    """T(U(r, n)) for 0 < r < n: the sum over i = 1..r of C(n - i - 1, n - r - 1) x^i
    and over j = 1..n - r of C(n - j - 1, r - 1) y^j."""
    xs = {(i, 0): comb(n - i - 1, n - r - 1) for i in range(1, r + 1)}
    ys = {(0, j): comb(n - j - 1, r - 1) for j in range(1, n - r + 1)}
    return BivarPoly({**xs, **ys})


def test_tutte_of_uniform_matroids_matches_the_closed_form():
    for n in range(1, 13):
        for r in range(1, n):
            assert tutte_polynomial(uniform_matroid(r, n)) == uniform_tutte(r, n), (r, n)


def test_tutte_of_a_wide_uniform_matroid():
    """U(2, 400): 79,800 bases, 159,599 states."""
    start = time.perf_counter()
    t = tutte_polynomial(uniform_matroid(2, 400))
    assert time.perf_counter() - start < 2
    assert t == uniform_tutte(2, 400)
    assert t.evaluate(1, 1) == comb(400, 2)


def test_chromatic_k5():
    p = chromatic_polynomial(complete_graph(5))
    expected = UnivarPoly((0, 1))
    for r in (1, 2, 3, 4):
        expected = expected * UnivarPoly((-r, 1))
    assert p == expected
    assert p.factored() == "k(k - 1)(k - 2)(k - 3)(k - 4)"


def test_chromatic_single_edge():
    p = chromatic_polynomial(graph_from_edges(2, [(0, 1)]))
    assert p == UnivarPoly((0, -1, 1))  # k(k-1)


def test_chromatic_triangle():
    p = chromatic_polynomial(graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    # frozen from the brute-force coloring oracle at k = 0..4 (k(k-1)(k-2))
    assert p.coeffs == (0, 2, -3, 1)
    for k in range(5):
        assert p.evaluate(k) == brute_coloring_count(
            graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]), k
        )


def test_chromatic_matches_coloring_counts():
    rng = Random(5)
    from oracles import random_graph

    for _ in range(20):
        g = random_graph(rng, max_v=5)
        p = chromatic_polynomial(g)
        for k in (1, 2, 3):
            assert p.evaluate(k) == brute_coloring_count(g, k)


def test_univar_poly_rendering():
    p = UnivarPoly((0, 2, -3, 1))
    assert p.render() == "k^3 - 3k^2 + 2k"
    assert p.factored() == "k(k - 1)(k - 2)"
    assert UnivarPoly(()).factored() == "0"
    # a unit -1 is a sign before a root factor, as in render, and a number alone
    assert UnivarPoly((0, -1)).factored() == "-k" and UnivarPoly((0, -1)).render() == "-k"
    assert UnivarPoly((0, 1, -1)).factored() == "-k(k - 1)"
    assert UnivarPoly((1, -1)).factored() == "-(k - 1)"
    assert UnivarPoly((-1,)).factored() == "-1" and UnivarPoly((-2, 2)).factored() == "2(k - 1)"
    assert UnivarPoly((5,)).render() == "5"
    total = p + UnivarPoly((1, -2, 3, -1))  # the top terms cancel and are trimmed
    assert total == UnivarPoly((1, 0, 0)) and total.coeffs == (1,) and total.degree == 0
    assert p + UnivarPoly() == p and hash(total) == hash(UnivarPoly((1,)))
    assert p * UnivarPoly() == UnivarPoly() * p == UnivarPoly()
    assert p.__eq__(p.coeffs) is NotImplemented and p != p.coeffs


def scan_factored(p: UnivarPoly) -> str:
    """`factored` by the full scan: every integer 0..degree is tried by
    synthetic division until it divides no more."""
    coeffs, roots = list(p.coeffs), []
    for root in range(p.degree + 1):
        mult = 0
        while len(coeffs) > 1:
            carry, quotient = 0, []
            for c in reversed(coeffs):
                carry = carry * root + c
                quotient.append(carry)
            if quotient.pop():
                break
            coeffs, mult = quotient[::-1], mult + 1
        if mult:
            roots.append(("k" if root == 0 else f"(k - {root})") + (f"^{mult}" if mult > 1 else ""))
    rest = UnivarPoly(coeffs)
    unit = "" if coeffs == [1] else "-" if coeffs == [-1] and roots else str(coeffs[0])
    head = f"({rest.render()})" if rest.degree >= 1 else unit
    return head + "".join(roots) or "1"


def test_factored_matches_the_full_scan():
    """Seeded products of (k - r) factors, r in -3..12, with a small cofactor,
    and chromatic polynomials of random graphs."""
    from oracles import random_graph

    rng = Random(17)
    polys = [chromatic_polynomial(random_graph(rng, max_v=6)) for _ in range(40)]
    for _ in range(400):
        p = UnivarPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        p = p if p.coeffs else UnivarPoly([rng.choice([-6, -1, 1, 2])])
        for _ in range(rng.randint(0, 7)):
            p = p * UnivarPoly([-rng.choice([0, 0, 1, 1, 2, 3, 5, 12, -1, -3]), 1])
        polys.append(p)
    for p in polys:
        assert p.factored() == scan_factored(p), p.coeffs
    assert {p.factored().count("(k - ") for p in polys} >= {0, 1, 2, 3}


def test_factored_of_a_high_degree_polynomial_is_fast():
    p = UnivarPoly([1] * 4097)  # 1 + k + ... + k^4096: no integer root
    start = time.perf_counter()
    text = p.factored()
    assert time.perf_counter() - start < 1
    assert text == f"({p.render()})"
