"""matroidkit: matroid construction, queries, minors, Tutte polynomials,
greedy optimization, basis polytopes, and graded flat algebras."""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines. Each submodule is imported on
# first use (PEP 562), so a process loads only the modules it touches.
_EXPORTS = {
    "algebra": "ChowPresentation PolytopeVertices chow_hilbert chow_presentation polytope_vertices",
    "construct": "components direct_sum graphic_matroid linear_matroid matroid_from_circuits "
    "matroid_from_nonbases specific_matroid uniform_matroid",
    "core": "Matroid",
    "graphs": "Cycle Graph closed_walks complete_graph component_count generalized_petersen "
    "get_cycles graph_from_edges",
    "linalg": "ExactMatrix",
    "optimize": "greedy",
    "search": "IsoWitness MinorWitness has_minor isomorphism",
    "subsets": "GroundSubset",
    "transform": "contraction deletion dual minor restriction",
    "tutte": "BivarPoly UnivarPoly chromatic_polynomial tutte_evaluate tutte_polynomial",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # The value is not stored in this namespace: bench/spans.py rebinds the
    # attributes of loaded modules and must be able to undo every rebinding.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
