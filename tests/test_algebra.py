import os
import subprocess
import sys
from math import comb
from pathlib import Path
from random import Random

import pytest

from matroidkit import (
    ExactMatrix,
    Matroid,
    chow_hilbert,
    chow_presentation,
    complete_graph,
    components,
    deletion,
    direct_sum,
    graphic_matroid,
    linear_matroid,
    polytope_vertices,
    uniform_matroid,
)
from oracles import (
    chain_chow_hilbert,
    elimination_polytope_dim,
    fy_chow_hilbert,
    naive_chow_hilbert,
    random_matroid,
)

PRIME = 1073741789


def test_polytope_k4(m4):
    data = polytope_vertices(m4)
    assert data.ambient_dim == 6
    assert len(data.vertices) == 16
    assert data.dim == 5


def test_polytope_segment():
    data = polytope_vertices(uniform_matroid(1, 2))
    assert set(data.vertices) == {(1, 0), (0, 1)}
    assert data.dim == 1


def test_polytope_point():
    data = polytope_vertices(uniform_matroid(3, 3))
    assert data.vertices == ((1, 1, 1),)
    assert data.dim == 0


def test_polytope_invariants(m5):
    data = polytope_vertices(m5)
    assert len(data.vertices) == len(m5.bases)
    assert all(sum(v) == m5.rank for v in data.vertices)
    # connected matroid on n elements: polytope dimension n - 1
    assert len(components(m5)) == 1
    assert data.dim == m5.n - 1


def test_polytope_dimension_matches_elimination():
    """n minus the number of components, against the rank of the vertex
    differences, on seeded matroids and on direct sums with loops and coloops."""
    rng = Random(61)
    loop, coloop = uniform_matroid(0, 1), uniform_matroid(1, 1)
    for i in range(300):
        m = random_matroid(rng, max_n=7)
        if i % 2:
            pool = [loop, coloop, random_matroid(rng, max_n=3)]
            for part in rng.choices(pool, k=rng.randint(1, 3)):
                m = direct_sum(m, part) if rng.random() < 0.5 else direct_sum(part, m)
        dim = polytope_vertices(m).dim
        assert dim == elimination_polytope_dim(m) == m.n - len(components(m))


def test_polytope_runs_no_elimination():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys\n"
        "from matroidkit import direct_sum, polytope_vertices, uniform_matroid\n"
        "m = direct_sum(uniform_matroid(2, 4), uniform_matroid(0, 1))\n"
        "print(polytope_vertices(m).dim, 'matroidkit.linalg' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "3 False\n"


def test_chow_presentation_u23():
    pres = chow_presentation(uniform_matroid(2, 3))
    assert len(pres.flats) == 3
    assert [f.indices() for f in pres.flats] == [(0,), (1,), (2,)]
    assert len(pres.linear_gens) == 2
    assert set(pres.quadric_gens) == {(0, 1), (0, 2), (1, 2)}
    # anchored at element 0: x_{0} - x_{i}
    assert pres.linear_gens[0] == ((0, 1), (1, -1))
    assert pres.linear_gens[1] == ((0, 1), (2, -1))


def test_chow_presentation_trivial():
    assert chow_presentation(uniform_matroid(1, 1)).flats == ()


def test_chow_presentation_rejects_loops(running_example):
    with pytest.raises(ValueError):
        chow_presentation(running_example)  # element 3 is a loop


def test_chow_hilbert_rejects_loops(running_example):
    with pytest.raises(ValueError, match="loopless"):
        chow_hilbert(running_example, 1)


def test_chow_variable_count_vamos(vamos):
    pres = chow_presentation(vamos)
    assert len(pres.flats) == sum(vamos.fvector()) - 2 == 77
    assert len(pres.linear_gens) == vamos.n - 1


def test_chow_hilbert_u23():
    m = uniform_matroid(2, 3)
    assert [chow_hilbert(m, d) for d in range(2)] == [1, 1]


def test_chow_hilbert_degree_zero(m4):
    assert chow_hilbert(m4, 0) == 1
    # rank 0: no proper nonempty flat, so the ring is the integers, in degree 0
    assert chow_hilbert(Matroid(0, [[]]), 0) == 1


def test_chow_hilbert_bad_degree(m4):
    with pytest.raises(ValueError):
        chow_hilbert(m4, m4.rank)
    with pytest.raises(ValueError):
        chow_hilbert(m4, -1)
    with pytest.raises(ValueError, match=r"degree must lie in \[0, 0\], got 1"):
        chow_hilbert(Matroid(0, [[]]), 1)


def test_chow_hilbert_matches_full_elimination(m4):
    # the chain-restricted computation must agree with the elimination over
    # every monomial, quadric rows included
    small = [uniform_matroid(2, 3), uniform_matroid(2, 4), uniform_matroid(3, 4), m4]
    for m in small:
        for d in range(m.rank):
            assert chow_hilbert(m, d) == naive_chow_hilbert(m, d)


@pytest.mark.parametrize("name", ["vamos", "m5", "u47", "u56"])
def test_chow_hilbert_matches_chain_elimination(request, name):
    # the count against the elimination over chain-supported monomials, in
    # both fields and every degree
    uniform = {"u47": (4, 7), "u56": (5, 6)}
    m = uniform_matroid(*uniform[name]) if name in uniform else request.getfixturevalue(name)
    for d in range(m.rank):
        value = chow_hilbert(m, d)
        assert value == chain_chow_hilbert(m, d) == chain_chow_hilbert(m, d, p=PRIME)


def test_chow_hilbert_random_matches_chain_elimination():
    rng = Random(53)
    done = parallel = 0
    while done < 60:
        m = random_matroid(rng, max_n=7)
        loops = m.loops()
        if len(loops):
            m = deletion(m, loops)
        if not 2 <= m.rank <= 4:
            continue
        if any(len(f) > 1 for f in m.flats()[1]):
            parallel += 1
        for d in range(m.rank):
            p = PRIME if d % 2 else 3
            value = chow_hilbert(m, d)
            assert value == chain_chow_hilbert(m, d) == chain_chow_hilbert(m, d, p=p)
        done += 1
    assert parallel >= 10


def test_chow_hilbert_degree_one_formula(m4, m5, vamos):
    # one basis monomial x_F per flat F of rank >= 2, the top flat included;
    # for a simple matroid that is #variables - (n - 1). The GF(2) columns
    # below are e1, e2, e1 + e2, e3 and e1 again, so 0 and 4 are parallel.
    parallel = linear_matroid(ExactMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0]], field=2))
    assert parallel.flats()[1][0].indices() == (0, 4)
    for m in (m4, m5, vamos, uniform_matroid(2, 4), parallel):
        assert chow_hilbert(m, 1) == sum(m.fvector()[2:])
    for m in (m4, m5, vamos, uniform_matroid(2, 4)):
        pres = chow_presentation(m)
        assert chow_hilbert(m, 1) == len(pres.flats) - (m.n - 1)


def test_chow_hilbert_symmetry():
    rng = Random(29)
    done = 0
    while done < 25:
        m = random_matroid(rng, max_n=6)
        loops = m.loops()
        if len(loops):
            m = deletion(m, loops)
        if m.rank < 1 or m.n == 0:
            continue
        values = [chow_hilbert(m, d) for d in range(m.rank)]
        assert values == values[::-1]
        done += 1


def test_chow_hilbert_unimodal():
    """The Hilbert function of a loopless matroid's Chow ring is unimodal
    (Adiprasito, Huh and Katz, Ann. of Math. 2018)."""
    rng = Random(31)
    done = 0
    while done < 40:
        m = random_matroid(rng, max_n=7)
        loops = m.loops()
        if len(loops):
            m = deletion(m, loops)
        if m.rank < 1 or m.n == 0:
            continue
        values = [chow_hilbert(m, d) for d in range(m.rank)]
        peak = values.index(max(values))
        assert values[: peak + 1] == sorted(values[: peak + 1])
        assert values[peak:] == sorted(values[peak:], reverse=True)
        done += 1


def eulerian(n: int, d: int) -> int:
    """A(n, d), the permutations of n with d descents, by the alternating sum."""
    return sum((-1) ** k * comb(n + 1, k) * (d + 1 - k) ** n for k in range(d + 2))


@pytest.mark.parametrize("n", range(2, 9))
def test_chow_hilbert_of_the_boolean_matroid_is_eulerian(n):
    """The Chow ring of U(n, n) is the cohomology of the permutohedral
    variety, whose Betti numbers are the Eulerian numbers A(n, d)."""
    m = uniform_matroid(n, n)
    assert [chow_hilbert(m, d) for d in range(n)] == [eulerian(n, d) for d in range(n)]


@pytest.mark.parametrize(
    "name, expected",
    [("vamos", [1, 70, 70, 1]), ("m5", [1, 41, 41, 1]), ("u47", [1, 57, 57, 1])],
)
def test_chow_hilbert_matches_fy_basis_count(request, name, expected):
    m = uniform_matroid(4, 7) if name == "u47" else request.getfixturevalue(name)
    assert fy_chow_hilbert(m) == expected
    assert [chow_hilbert(m, d) for d in range(m.rank)] == expected


def test_chow_hilbert_u56_matches_fy_basis_count():
    m = uniform_matroid(5, 6)
    expected = fy_chow_hilbert(m)
    assert expected == [1, 51, 161, 51, 1]
    assert [chow_hilbert(m, d) for d in range(m.rank)] == expected


def test_chow_hilbert_random_matches_fy_basis_count():
    rng = Random(41)
    done = 0
    while done < 60:
        m = random_matroid(rng, max_n=7)
        loops = m.loops()
        if len(loops):
            m = deletion(m, loops)
        if not 1 <= m.rank <= 4:
            continue
        expected = fy_chow_hilbert(m)
        assert [chow_hilbert(m, d) for d in range(m.rank)] == expected
        done += 1
