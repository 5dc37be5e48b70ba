"""Spans around calls into matroidkit's public functions, installed from outside
the package.

`install` replaces every module attribute of matroidkit that is bound to a
traced function (and the traced methods on its classes) with a timing wrapper.
Callers look those names up at call time, so calls between modules nest:
`has_minor` calling `matroidkit.search.deletion` records a `transform.deletion`
span whose parent is `search.has_minor`.

Spans are aggregated when they close (calls, total time, self time, parent ->
child call counts, and the summed duration of top-level spans) instead of
being stored one by one: a single minor search opens about 10^5 nested spans.
"""

from __future__ import annotations

import sys
import time

# layer -> public names (Class.method for methods) -> span name
TRACED = {
    "cli": {
        "build_parser": "cli.build_parser",
        "load_matroid": "cli.load",
        "load_graph": "cli.load",
        "load_matrix": "cli.load",
        "run": "cli.run",
    },
    "construct": {
        name: f"construct.{name}"
        for name in (
            "graphic_matroid",
            "matroid_from_circuits",
            "linear_matroid",
            "uniform_matroid",
            "matroid_from_nonbases",
            "specific_matroid",
            "components",
            "direct_sum",
        )
    },
    "graphs": {"get_cycles": "graphs.get_cycles"},
    "core": {
        "Matroid.__init__": "core.init",
        "Matroid.rank_of": "core.rank_of",
        "Matroid.closure": "core.closure",
        "Matroid.is_valid": "core.is_valid",
        "Matroid.circuits": "core.circuits",
        "Matroid.flats": "core.flats",
        "Matroid.hyperplanes": "core.hyperplanes",
        "Matroid.independents": "core.independents",
    },
    "optimize": {"greedy": "optimize.greedy"},
    "transform": {
        name: f"transform.{name}"
        for name in ("dual", "deletion", "contraction", "restriction", "minor")
    },
    "search": {"has_minor": "search.has_minor", "isomorphism": "search.isomorphism"},
    "tutte": {
        "tutte_polynomial": "tutte.tutte_polynomial",
        "chromatic_polynomial": "tutte.chromatic_polynomial",
    },
    "algebra": {
        name: f"algebra.{name}"
        for name in ("chow_hilbert", "chow_presentation", "polytope_vertices")
    },
    "linalg": {
        "rank_rows_mod_p_dense": "linalg.elim",
        "rank_rows_exact": "linalg.elim",
        "ExactMatrix.rank": "linalg.matrix_rank",
    },
}


def _count_bases(tracer, args, result):
    parts = result if isinstance(result, list) else [result]
    tracer.add("construct.bases_out", sum(len(m.basis_masks) for m in parts))


def _count_elim(tracer, args, result):
    rows = args[0]
    cols = args[1] if len(args) > 1 else 1 + max((max(r) for r in rows if r), default=-1)
    tracer.add("linalg.elim_rows", len(rows))
    tracer.add("linalg.elim_cols", cols)
    tracer.add("linalg.elim_dense_bytes", len(rows) * cols * 8)


# span name -> hook(tracer, args, result) run after a successful call
WORK_COUNTS = {
    **{f"construct.{n}": _count_bases for n in TRACED["construct"]},
    "graphs.get_cycles": lambda t, a, r: t.add("graphs.cycles_out", len(r)),
    "core.circuits": lambda t, a, r: t.add("core.circuits_out", len(r)),
    "core.flats": lambda t, a, r: t.add("core.flats_out", sum(map(len, r))),
    "search.isomorphism": lambda t, a, r: t.add("search.iso_hits", r is not None),
    "linalg.elim": _count_elim,
}


class Tracer:
    """Aggregated spans of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self.counts: dict[str, int] = {}
        self.top_s = 0.0
        self._stack: list[list] = []  # open spans: [name, child_s]

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def record(self, name: str, duration: float, child_s: float) -> None:
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += duration
        s[2] += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        else:
            self.top_s += duration

    def wrap(self, name: str, fn):
        hook = WORK_COUNTS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                self.record(name, duration, frame[1])
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[p, c, k] for (p, c), k in self.edges.items()],
            "counts": self.counts,
            "top_s": self.top_s,
        }

    def merge(self, data: dict) -> None:
        for name, (calls, total, own) in data["stats"].items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += own
        for p, c, k in data["edges"]:
            self.edges[(p, c)] = self.edges.get((p, c), 0) + k
        for key, v in data["counts"].items():
            self.add(key, v)
        self.top_s += data["top_s"]


def install(tracer: Tracer):
    """Wrap every traced function; returns a function that undoes it."""
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "matroidkit" or n.startswith("matroidkit.")]
    for layer, names in TRACED.items():
        mod = sys.modules.get(f"matroidkit.{layer}")
        if mod is None:
            continue
        for attr, span in names.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(span, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = tracer.wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
