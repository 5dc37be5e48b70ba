"""The package entry point: its public names, which load their modules on first
use, and the seven immutable value classes."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import matroidkit
from matroidkit import (
    ChowPresentation,
    Cycle,
    Graph,
    GroundSubset,
    IsoWitness,
    MinorWitness,
    PolytopeVertices,
)
from matroidkit.subsets import _subsets_of

PUBLIC = [
    "BivarPoly",
    "ChowPresentation",
    "Cycle",
    "ExactMatrix",
    "Graph",
    "GroundSubset",
    "IsoWitness",
    "Matroid",
    "MinorWitness",
    "PolytopeVertices",
    "UnivarPoly",
    "chow_hilbert",
    "chow_presentation",
    "chromatic_polynomial",
    "closed_walks",
    "complete_graph",
    "component_count",
    "components",
    "contraction",
    "deletion",
    "direct_sum",
    "dual",
    "generalized_petersen",
    "get_cycles",
    "graph_from_edges",
    "graphic_matroid",
    "greedy",
    "has_minor",
    "isomorphism",
    "linear_matroid",
    "matroid_from_circuits",
    "matroid_from_nonbases",
    "minor",
    "polytope_vertices",
    "restriction",
    "specific_matroid",
    "tutte_evaluate",
    "tutte_polynomial",
    "uniform_matroid",
]
SUBMODULES = [
    "algebra",
    "construct",
    "core",
    "graphs",
    "linalg",
    "optimize",
    "search",
    "subsets",
    "transform",
    "tutte",
]


# -- the package's names ----------------------------------------------------------


def test_all_is_the_pinned_public_list():
    assert matroidkit.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_the_attribute_of_its_home_module(name):
    obj = getattr(matroidkit, name)
    assert obj.__module__.startswith("matroidkit.")
    assert obj is getattr(importlib.import_module(obj.__module__), name)
    # resolved on each use, never stored, so rebinding the home module's
    # attribute (as bench/spans.py does) shows through the package
    assert name not in vars(matroidkit)


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from matroidkit import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC + SUBMODULES + ["__version__"]) <= set(dir(matroidkit))


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_resolve_without_import(module):
    assert matroidkit.__getattr__(module) is importlib.import_module(f"matroidkit.{module}")


def test_import_loads_no_submodule_until_first_use():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, matroidkit\n"
        "before = [m for m in sys.modules if m.startswith('matroidkit.')]\n"
        "print(before, matroidkit.tutte.__name__, matroidkit.uniform_matroid(2, 4).rank)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[] matroidkit.tutte 2\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        matroidkit.nonesuch  # noqa: B018
    assert not hasattr(matroidkit, "Frozen")


# -- the value classes ----------------------------------------------------------------

TRIANGLE = matroidkit.graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
ISO = IsoWitness((0, 1))
MINOR = MinorWitness(GroundSubset.of([0], 3), GroundSubset.empty(3), ISO)

# one value of each class, the same value built again, a different value of
# the same class, and the repr the value had as a frozen dataclass; the
# GroundSubset is built as the queries build theirs, without __init__
VALUES = [
    (
        _subsets_of([0b101], 4)[0],
        GroundSubset(0b101, 4),
        GroundSubset(0b101, 5),
        "GroundSubset({0, 2}, n=4)",
    ),
    (
        TRIANGLE,
        Graph(3, ((0, 1), (1, 2), (0, 2))),
        Graph(3, ((0, 1), (1, 2))),
        "Graph(v=3, edges=((0, 1), (1, 2), (0, 2)))",
    ),
    (
        matroidkit.get_cycles(TRIANGLE)[0],
        Cycle(GroundSubset(7, 3), (0, 1, 2, 0)),
        Cycle(GroundSubset(7, 3), (0, 2, 1, 0)),
        "Cycle(edge_indices=GroundSubset({0, 1, 2}, n=3), vertex_sequence=(0, 1, 2, 0))",
    ),
    (IsoWitness((1, 0, 2)), IsoWitness((1, 0, 2)), ISO, "IsoWitness(perm=(1, 0, 2))"),
    (
        MINOR,
        MinorWitness(GroundSubset(1, 3), GroundSubset(0, 3), IsoWitness((0, 1))),
        MinorWitness(GroundSubset(2, 3), GroundSubset(0, 3), ISO),
        "MinorWitness(contract=GroundSubset({0}, n=3), delete=GroundSubset({}, n=3), "
        "iso=IsoWitness(perm=(0, 1)))",
    ),
    (
        matroidkit.polytope_vertices(matroidkit.uniform_matroid(1, 2)),
        PolytopeVertices(2, ((1, 0), (0, 1)), 1),
        PolytopeVertices(2, ((1, 0), (0, 1)), 2),
        "PolytopeVertices(ambient_dim=2, vertices=((1, 0), (0, 1)), dim=1)",
    ),
    (
        matroidkit.chow_presentation(matroidkit.uniform_matroid(2, 3)),
        ChowPresentation(
            tuple(GroundSubset.of([i], 3) for i in range(3)),
            (((0, 1), (1, -1)), ((0, 1), (2, -1))),
            ((0, 1), (0, 2), (1, 2)),
        ),
        ChowPresentation((), (), ()),
        "ChowPresentation(flats=(GroundSubset({0}, n=3), GroundSubset({1}, n=3), "
        "GroundSubset({2}, n=3)), linear_gens=(((0, 1), (1, -1)), ((0, 1), (2, -1))), "
        "quadric_gens=((0, 1), (0, 2), (1, 2)))",
    ),
]
IDS = [type(v[0]).__name__ for v in VALUES]


@pytest.mark.parametrize("value, same, other, text", VALUES, ids=IDS)
def test_equality_hash_and_repr(value, same, other, text):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert repr(value) == text
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_immutable(value):
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_copy_and_pickle_round_trip(value):
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_equality_is_within_one_class():
    assert IsoWitness((0, 1)) != (0, 1)
    assert GroundSubset(1, 2) != (1, 2)
    assert Cycle(GroundSubset(7, 3), (0,)) != MinorWitness(GroundSubset(7, 3), (0,), None)


def test_wrong_field_count_is_a_type_error():
    with pytest.raises(TypeError):
        IsoWitness()
    with pytest.raises(TypeError):
        PolytopeVertices(2, ())


@pytest.mark.parametrize(
    "bits, n, message",
    [
        (-1, 2, "bitmask -0x1 has bits outside [0, 2)"),
        (4, 2, "bitmask 0x4 has bits outside [0, 2)"),
        (1, -1, "ground set size must be nonnegative"),
    ],
)
def test_ground_subset_checks(bits, n, message):
    with pytest.raises(ValueError) as info:
        GroundSubset(bits, n)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "v, edges, message",
    [
        (2, ((0, 2),), "edge (0, 2) has an endpoint outside [0, 2)"),
        (3, ((1, 1),), "self-loop at vertex 1"),
        (3, ((2, 1),), "edge (2, 1) not normalized; use graph_from_edges"),
        (3, ((0, 1), (0, 1)), "duplicate edge (0, 1)"),
    ],
)
def test_graph_checks(v, edges, message):
    with pytest.raises(ValueError) as info:
        Graph(v, edges)
    assert str(info.value) == message

