"""The benchmark's tracer (bench/spans.py) wraps library functions by name.

This test installs it on the live package, runs one call of each traced kind,
and checks that every traced name resolves and that the elimination spans
fire, so a rename in the library fails here rather than in a traced
benchmark run. The tracer module is only imported, never modified, and the
wrappers are removed before the test returns.
"""

import importlib.util
from pathlib import Path

import matroidkit
from matroidkit import ExactMatrix

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_contract", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_elimination_spans_fire():
    spans = load_spans()
    # the package loads its modules on first use, and install wraps only the
    # loaded ones
    layers = {layer: importlib.import_module(f"matroidkit.{layer}") for layer in spans.TRACED}
    for layer, names in spans.TRACED.items():
        mod = layers[layer]
        for attr in names:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(mod, cls_name)), attr
            else:
                assert callable(getattr(mod, attr)), attr

    tracer = spans.Tracer()

    def elim_calls():
        return tracer.stats.get("linalg.elim", [0])[0]

    uninstall = spans.install(tracer)
    try:
        calls = [
            lambda: ExactMatrix([[1, 2, 0], [0, 1, 1]]).rank(),
            lambda: ExactMatrix([[1, 2, 0], [0, 1, 1]], field=3).rank(),
        ]
        for call in calls:
            before = elim_calls()
            call()
            assert elim_calls() > before
        # a column matroid streams its rows through echelon_insert once, then
        # grows its bases one echelon step per column of those rows; the traced
        # rank_rows_exact is never called
        before = elim_calls()
        for field in (None, 3):
            linear = matroidkit.linear_matroid(ExactMatrix([[1, 2, 0], [0, 1, 1]], field=field))
            assert len(linear.bases) == 3
        assert elim_calls() == before
        # the Hilbert function is a count over the flats, with no elimination
        before = elim_calls()
        assert matroidkit.chow_hilbert(matroidkit.uniform_matroid(3, 4), 1, exact=True) == 7
        assert elim_calls() == before
        # the polytope dimension is n minus the number of components
        before = elim_calls()
        assert matroidkit.polytope_vertices(matroidkit.specific_matroid("fano")).dim == 6
        assert elim_calls() == before
        m4 = matroidkit.graphic_matroid(matroidkit.complete_graph(4))
        assert matroidkit.has_minor(m4, matroidkit.uniform_matroid(1, 2)) is not None
        assert matroidkit.minor(m4, [0], [1]).n == 4
        # minor search reads contractions off the host's basis columns, so the
        # contraction span needs its own call
        assert matroidkit.contraction(m4, [0]).n == 5
    finally:
        uninstall()

    assert matroidkit.linear_matroid.__name__ == "linear_matroid"
    assert ExactMatrix.rank.__name__ == "rank"
    assert matroidkit.linalg.rank_rows_exact.__name__ == "rank_rows_exact"
    for name in (
        "construct.linear_matroid",
        "linalg.matrix_rank",
        "algebra.polytope_vertices",
        "algebra.chow_hilbert",
        "search.has_minor",
        "transform.contraction",
        "transform.minor",
    ):
        assert tracer.stats[name][0] > 0, name
    assert ("linalg.matrix_rank", "linalg.elim") in tracer.edges
    for key in ("linalg.elim_rows", "linalg.elim_cols"):
        assert tracer.counts[key] > 0, key
