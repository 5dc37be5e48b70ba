#!/usr/bin/env python3
"""End-to-end tour: builds the standard examples and prints their invariants.

Usage: python scripts/showcase.py
"""

import math
import time
from fractions import Fraction

from matroidkit import (
    ExactMatrix,
    Matroid,
    chow_hilbert,
    chow_presentation,
    chromatic_polynomial,
    complete_graph,
    dual,
    generalized_petersen,
    get_cycles,
    graphic_matroid,
    greedy,
    has_minor,
    isomorphism,
    linear_matroid,
    minor,
    polytope_vertices,
    specific_matroid,
    tutte_evaluate,
    tutte_polynomial,
    uniform_matroid,
)


def section(title):
    print(f"\n== {title}")


def main():
    section("a small labeled matroid")
    m = Matroid(4, [[0, 1], [0, 2]], labels=["a", "b", "c", "d"])
    print("bases:", [m.labels_of(b.indices()) for b in m.bases])
    print("valid:", m.is_valid(), "| rank:", m.rank, "| fvector:", m.fvector())
    print("circuits:", [c.indices() for c in m.circuits()])
    print("dual bases:", [b.indices() for b in dual(m).bases])

    section("linear matroid over the rationals")
    a = ExactMatrix([[0, 4, -1, 6], [0, Fraction(2, 3), 7, 1]])
    ma = linear_matroid(a)
    witness = isomorphism(ma, m)
    print("columns:", ma.labels)
    print("isomorphic to the small matroid via:", witness.perm)

    section("cycle enumeration")
    for name, g in [("GP(5,2)", generalized_petersen(5, 2)), ("K8", complete_graph(8))]:
        t0 = time.perf_counter()
        count = len(get_cycles(g))
        print(f"{name}: {count} cycles ({time.perf_counter() - t0:.2f}s)")

    section("graphic matroid of K5")
    m5 = graphic_matroid(complete_graph(5))
    print("spanning trees:", len(m5.bases))
    print("tutte:", tutte_polynomial(m5))
    print("T(1,1), T(2,1), T(2,0):", [tutte_evaluate(m5, *p) for p in [(1, 1), (2, 1), (2, 0)]])
    print("chromatic(K5):", chromatic_polynomial(complete_graph(5)).factored())

    section("minors of M(K5)")
    m4 = graphic_matroid(complete_graph(4))
    print("minor /{9} \\{3,5,8} equals M(K4):", minor(m5, [9], [3, 5, 8]) == m4)
    for pattern, name in [
        (uniform_matroid(2, 4), "U(2,4)"),
        (specific_matroid("fano"), "F7"),
        (dual(specific_matroid("fano")), "F7*"),
    ]:
        print(f"has {name} minor:", has_minor(m5, pattern) is not None)
    w = has_minor(m5, m4)
    print("M(K4) witness: contract", w.contract.indices(), "delete", w.delete.indices())

    section("greedy optimization on the Fano matroid")
    weights = [0, math.log(2), Fraction(4, 3), 1, -4, 2, math.pi]
    print("selection order:", greedy(specific_matroid("fano"), weights))

    section("basis polytope of M(K4)")
    data = polytope_vertices(m4)
    print("ambient:", data.ambient_dim, "| vertices:", len(data.vertices), "| dim:", data.dim)

    section("Vamos matroid and its graded flat algebra")
    v = specific_matroid("vamos")
    print("(n, #bases, rank, #flats):", (v.n, len(v.bases), v.rank, sum(v.fvector())))
    print("presentation variables:", len(chow_presentation(v).flats))
    t0 = time.perf_counter()
    hilbert = [chow_hilbert(v, d) for d in range(v.rank)]
    print(f"hilbert function: {hilbert} ({time.perf_counter() - t0:.2f}s)")


if __name__ == "__main__":
    main()
