"""Inputs deeper than Python's recursion limit.

Every search keeps its own stack, so ground sets of about 1,100 elements (well
under the CLI's MAX_GROUND) give the expected answers, and a process whose
recursion limit is far below the input size gives the same answers as a
normal one.
"""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

from matroidkit import (
    BivarPoly,
    Matroid,
    UnivarPoly,
    chromatic_polynomial,
    closed_walks,
    get_cycles,
    graph_from_edges,
    isomorphism,
    tutte_polynomial,
    uniform_matroid,
)
from matroidkit.search import apply_permutation

DEEP = 1100


def cycle_graph(n: int):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def moved_coloop(n: int) -> tuple[Matroid, Matroid]:
    """Rank 1 on n elements with a single basis: one coloop and n - 1 loops,
    at opposite ends in the two copies, so a witness maps all n elements."""
    return Matroid(n, [[0]]), Matroid(n, [[n - 1]])


def test_tutte_of_a_deep_uniform_matroid():
    # U(1, n): x + y + y^2 + ... + y^(n-1)
    expected = BivarPoly({(1, 0): 1, **{(0, j): 1 for j in range(1, DEEP)}})
    assert tutte_polynomial(uniform_matroid(1, DEEP)) == expected


def test_chromatic_of_a_deep_cycle():
    # C_n: (k - 1)^n + (-1)^n (k - 1)
    n = DEEP
    coeffs = [comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]
    coeffs[1] += (-1) ** n
    coeffs[0] -= (-1) ** n
    assert chromatic_polynomial(cycle_graph(n)) == UnivarPoly(coeffs)


def test_cycles_and_walks_of_a_deep_cycle():
    g = cycle_graph(DEEP)
    cycles = get_cycles(g)
    assert len(cycles) == 1
    assert cycles[0].vertex_sequence == tuple(range(DEEP)) + (0,)
    assert cycles[0].edge_indices.bits == (1 << DEEP) - 1
    forward = tuple(range(DEEP)) + (0,)
    assert closed_walks(g, 0, DEEP) == [forward, forward[::-1]]


def test_isomorphism_of_deep_matroids():
    a, b = moved_coloop(DEEP)
    w = isomorphism(a, b)
    assert w is not None
    assert {apply_permutation(m, w.perm) for m in a.basis_masks} == set(b.basis_masks)


def answers(n: int) -> list:
    """Results of the Tutte, chromatic, cycle and isomorphism searches on
    inputs of about n elements, as plain data."""
    g = cycle_graph(n)
    a, b = moved_coloop(n)
    return [
        tutte_polynomial(uniform_matroid(1, n)).sorted_terms(),
        list(chromatic_polynomial(g).coeffs),
        [c.vertex_sequence for c in get_cycles(g)],
        closed_walks(g, 0, n),
        isomorphism(a, b).perm,
    ]


def test_no_search_recurses():
    """A recursion limit of 200 is far below the depth of 300-element inputs,
    so any search that recursed once per element would raise RecursionError."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    probe = (
        "import json, sys, test_deep; sys.setrecursionlimit(200); "
        "print(json.dumps(test_deep.answers(300)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == json.loads(json.dumps(answers(300)))
