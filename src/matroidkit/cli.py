"""Command-line front end exposing the library over stable JSON file formats.

File formats:
  matroid-v1  {"format": "matroid-v1", "n": int, "labels": [str]?, "bases": [[int]]}
  graph-v1    {"format": "graph-v1", "v": int, "edges": [[int, int]]}
              or plain text: first line "v m", then m lines "u w"
  matrix-v1   {"format": "matrix-v1", "rows": r, "cols": c, "entries": [[str]]}
              entries are decimal integers or "a/b" rationals

Exit codes: 0 success, 1 domain error (bad input values or file contents),
2 usage error. Boolean queries print "true"/"false" and exit 0 either way;
`isomorphic` and `has-minor` add a witness JSON object on a second line when
the answer is true.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import chow_hilbert, chow_presentation, polytope_vertices
from .construct import (
    components,
    direct_sum,
    graphic_matroid,
    linear_matroid,
    specific_matroid,
    uniform_matroid,
)
from .core import Matroid
from .graphs import Graph, component_count, get_cycles, graph_from_edges
from .linalg import ExactMatrix
from .optimize import greedy
from .search import has_minor, isomorphism
from .subsets import GroundSubset
from .transform import contraction, deletion, minor
from .transform import dual as dual_of
from .tutte import chromatic_polynomial, tutte_evaluate, tutte_polynomial

# The most candidate bases (`uniform`, `linear`, `graphic`) or flats (`info`, `flats`, `chow`).
MAX_ENUMERATED = 10**6
# The largest matroid ground set and graph vertex count the loaders accept.
MAX_GROUND = 4096

# -- file I/O ------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _is_int(x) -> bool:
    """JSON integers only: bool is an int subclass in Python, and floats such
    as 1.0 are not indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text: str, expected_format: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != expected_format:
        raise ValueError(f"expected a {expected_format!r} document")
    return obj


def load_matroid(path: str) -> Matroid:
    obj = _parse_json(_read_text(path), "matroid-v1")
    n = obj.get("n")
    bases = obj.get("bases")
    if not _is_int(n) or not isinstance(bases, list):
        raise ValueError("matroid-v1 needs integer 'n' and a list 'bases'")
    if n > MAX_GROUND:
        raise ValueError(f"n = {n} exceeds the limit of {MAX_GROUND} elements")
    if not all(isinstance(b, list) and all(map(_is_int, b)) for b in bases):
        raise ValueError("every basis must be a list of integer indices")
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or any(not isinstance(x, str) for x in labels)
    ):
        raise ValueError("'labels' must be a list of strings")
    return Matroid(n, bases, labels)


def dump_matroid(matroid: Matroid) -> dict:
    doc: dict = {"format": "matroid-v1", "n": matroid.n}
    if matroid.labels is not None:
        doc["labels"] = list(matroid.labels)
    doc["bases"] = [list(b.indices()) for b in matroid.bases]
    return doc


def load_graph(path: str) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        obj = _parse_json(text, "graph-v1")
        v = obj.get("v")
        edges = obj.get("edges")
        if not _is_int(v) or not isinstance(edges, list):
            raise ValueError("graph-v1 needs integer 'v' and a list 'edges'")
        if not all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges):
            raise ValueError("every edge must be a pair of integer vertices")
        if v > MAX_GROUND:
            raise ValueError(f"v = {v} exceeds the limit of {MAX_GROUND} vertices")
        return graph_from_edges(v, [tuple(e) for e in edges])
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    try:
        v, m = map(int, lines[0].split())
        edges = [tuple(map(int, ln.split())) for ln in lines[1 : 1 + m]]
    except ValueError:
        raise ValueError("graph text format is 'v m' then m lines 'u w'") from None
    if len(edges) != m:
        raise ValueError(f"expected {m} edge lines, found {len(edges)}")
    if v > MAX_GROUND:
        raise ValueError(f"v = {v} exceeds the limit of {MAX_GROUND} vertices")
    return graph_from_edges(v, edges)


def load_matrix(path: str, field: int | None) -> ExactMatrix:
    obj = _parse_json(_read_text(path), "matrix-v1")
    rows = obj.get("rows")
    cols = obj.get("cols")
    entries = obj.get("entries")
    if not _is_int(rows) or not _is_int(cols) or not isinstance(entries, list):
        raise ValueError("matrix-v1 needs 'rows', 'cols', and 'entries'")
    if len(entries) != rows or any(not isinstance(r, list) or len(r) != cols for r in entries):
        raise ValueError("entry grid does not match the declared shape")

    def convert(e):
        if _is_int(e):
            return e
        if isinstance(e, str):
            if field is not None:
                return int(e)
            return Fraction(e)
        raise ValueError(f"matrix entry {e!r} must be an integer or a string")

    try:
        data = [[convert(e) for e in row] for row in entries]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad matrix entry: {exc}") from None
    return ExactMatrix(data, field=field, cols=cols)


def parse_field(spec: str) -> int | None:
    if spec == "q":
        return None
    if spec.startswith("p:"):
        try:
            return int(spec[2:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
    raise ValueError("field must be 'q' (rationals) or 'p:<prime>'")


def parse_indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad index list {text!r}; use comma-separated integers") from None


# -- rendering -----------------------------------------------------------------


def _emit(obj) -> None:
    print(json.dumps(obj))


def _fmt_subset(indices, labels) -> str:
    if labels is not None:
        return "{" + ", ".join(labels[i] for i in indices) + "}"
    return "{" + ", ".join(str(i) for i in indices) + "}"


def _emit_matroid(matroid: Matroid, pretty: bool) -> None:
    if not pretty:
        _emit(dump_matroid(matroid))
        return
    print(f"n={matroid.n} rank={matroid.rank} bases={len(matroid.bases)}")
    print("bases: " + ", ".join(_fmt_subset(b.indices(), matroid.labels) for b in matroid.bases))


def _emit_subset_list(name: str, subsets, matroid: Matroid, pretty: bool) -> None:
    if not pretty:
        _emit({name: [list(s.indices()) for s in subsets]})
        return
    print(f"{name}:")
    for s in subsets:
        print("  " + _fmt_subset(s.indices(), matroid.labels))


# -- subcommands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    print("true" if load_matroid(args.file).is_valid() else "false")
    return 0


def _refuse_many_flats(m: Matroid) -> None:
    """Refuse 2^r > MAX_ENUMERATED: the closures of the subsets of one basis are distinct flats."""
    if 1 << m.rank > MAX_ENUMERATED:
        raise ValueError(f"rank {m.rank} gives at least 2^{m.rank} flats, over {MAX_ENUMERATED}")


def cmd_info(args) -> int:
    m = load_matroid(args.file)
    _refuse_many_flats(m)
    info = {
        "n": m.n,
        "rank": m.rank,
        "bases": len(m.bases),
        "loops": list(m.loops().indices()),
        "coloops": list(m.coloops().indices()),
        "fvector": m.fvector(),
    }
    if args.pretty:
        for key, value in info.items():
            print(f"{key}: {value}")
    else:
        _emit(info)
    return 0


def cmd_subsets(args) -> int:
    """`bases`, `circuits` and `hyperplanes`: the subset list the command names."""
    m = load_matroid(args.file)
    query = {"bases": lambda: m.bases, "circuits": m.circuits, "hyperplanes": m.hyperplanes}
    _emit_subset_list(args.command, query[args.command](), m, args.pretty)
    return 0


def cmd_flats(args) -> int:
    m = load_matroid(args.file)
    _refuse_many_flats(m)
    levels = m.flats()
    if args.pretty:
        for k, level in enumerate(levels):
            print(f"rank {k}: " + ", ".join(_fmt_subset(f.indices(), m.labels) for f in level))
    else:
        _emit({"flats": [[list(f.indices()) for f in level] for level in levels]})
    return 0


def cmd_dual(args) -> int:
    _emit_matroid(dual_of(load_matroid(args.file)), args.pretty)
    return 0


def cmd_delete(args) -> int:
    m = load_matroid(args.file)
    _emit_matroid(deletion(m, parse_indices(args.set)), args.pretty)
    return 0


def cmd_contract(args) -> int:
    m = load_matroid(args.file)
    _emit_matroid(contraction(m, parse_indices(args.set)), args.pretty)
    return 0


def cmd_minor(args) -> int:
    m = load_matroid(args.file)
    result = minor(m, parse_indices(args.contract), parse_indices(args.delete))
    _emit_matroid(result, args.pretty)
    return 0


def cmd_isomorphic(args) -> int:
    witness = isomorphism(load_matroid(args.a), load_matroid(args.b))
    print("true" if witness is not None else "false")
    if witness is not None:
        _emit({"isomorphism": list(witness.perm)})
    return 0


def cmd_has_minor(args) -> int:
    witness = has_minor(load_matroid(args.a), load_matroid(args.b))
    print("true" if witness is not None else "false")
    if witness is not None:
        cset = ",".join(str(i) for i in witness.contract.indices()) or "''"
        dset = ",".join(str(i) for i in witness.delete.indices()) or "''"
        minor_cmd = f"matroidkit minor --contract {cset} --delete {dset} {args.a}"
        _emit(
            {
                "contract": list(witness.contract.indices()),
                "delete": list(witness.delete.indices()),
                "isomorphism": list(witness.iso.perm),
                "replay": [minor_cmd, f"matroidkit isomorphic - {args.b}"],
            }
        )
    return 0


def cmd_tutte(args) -> int:
    poly = tutte_polynomial(load_matroid(args.file))
    if args.pretty:
        print(str(poly))
    else:
        _emit({"format": "bivar-poly-v1", "terms": [list(t) for t in poly.sorted_terms()]})
    return 0


def cmd_tutte_eval(args) -> int:
    print(tutte_evaluate(load_matroid(args.file), args.x, args.y))
    return 0


def cmd_chromatic(args) -> int:
    graph = load_graph(args.file)
    _refuse_large_enumeration(len(graph.edges), graph.v - component_count(graph))
    poly = chromatic_polynomial(graph)
    if args.pretty:
        print(poly.factored())
    else:
        _emit({"coefficients": list(poly.coeffs), "factored": poly.factored()})
    return 0


def cmd_cycles(args) -> int:
    cycles = get_cycles(load_graph(args.file))
    if args.pretty:
        print(f"count: {len(cycles)}")
        for c in cycles:
            print("  " + "-".join(str(v) for v in c.vertex_sequence))
    else:
        _emit(
            {
                "count": len(cycles),
                "cycles": [
                    {
                        "edges": list(c.edge_indices.indices()),
                        "vertices": list(c.vertex_sequence),
                    }
                    for c in cycles
                ],
            }
        )
    return 0


def cmd_greedy(args) -> int:
    try:
        weights = json.loads(args.weights)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--weights must be a JSON array: {exc}") from None
    # NaN compares false both ways, so it would derail the greedy order
    if not isinstance(weights, list) or not all(
        _is_int(w) or (isinstance(w, float) and not math.isnan(w)) for w in weights
    ):
        raise ValueError("--weights must be a JSON array of numbers")
    print(json.dumps(greedy(load_matroid(args.file), weights)))
    return 0


def cmd_polytope(args) -> int:
    data = polytope_vertices(load_matroid(args.file))
    if args.pretty:
        print(f"ambient dimension: {data.ambient_dim}")
        print(f"vertices: {len(data.vertices)}")
        print(f"dimension: {data.dim}")
    else:
        _emit(
            {
                "ambient_dim": data.ambient_dim,
                "num_vertices": len(data.vertices),
                "dim": data.dim,
                "vertices": [list(v) for v in data.vertices],
            }
        )
    return 0


def cmd_chow(args) -> int:
    m = load_matroid(args.file)
    if args.degree is None or 0 < args.degree < m.rank - 1:
        _refuse_many_flats(m)
    if args.degree is not None:
        print(chow_hilbert(m, args.degree))
        return 0
    pres = chow_presentation(m)
    if args.pretty:
        print(f"variables: {len(pres.flats)}")
        print(f"linear generators: {len(pres.linear_gens)}")
        print(f"quadric generators: {len(pres.quadric_gens)}")
    else:
        _emit(
            {
                "format": "chow-v1",
                "variables": [list(f.indices()) for f in pres.flats],
                "linear": [[list(t) for t in gen] for gen in pres.linear_gens],
                "quadrics": [list(q) for q in pres.quadric_gens],
            }
        )
    return 0


def _refuse_large_enumeration(n: int, r: int) -> None:
    """Refuse to enumerate more than MAX_ENUMERATED candidate bases C(n, r).
    C(n, i) grows with i up to n / 2, so the product stops at the first
    partial value over the limit and never forms a huge binomial."""
    count = 1
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)
        if count > MAX_ENUMERATED:
            raise ValueError(f"C({n}, {r}) exceeds the limit of {MAX_ENUMERATED} candidate bases")


def cmd_uniform(args) -> int:
    _refuse_large_enumeration(args.n, args.rank)
    _emit_matroid(uniform_matroid(args.rank, args.n), args.pretty)
    return 0


def cmd_graphic(args) -> int:
    graph = load_graph(args.file)
    _refuse_large_enumeration(len(graph.edges), graph.v - component_count(graph))
    _emit_matroid(graphic_matroid(graph), args.pretty)
    return 0


def cmd_linear(args) -> int:
    matrix = load_matrix(args.file, parse_field(args.field))
    _refuse_large_enumeration(matrix.cols, matrix.rank())
    _emit_matroid(linear_matroid(matrix), args.pretty)
    return 0


def cmd_named(args) -> int:
    _emit_matroid(specific_matroid(args.name), args.pretty)
    return 0


def cmd_direct_sum(args) -> int:
    _emit_matroid(direct_sum(load_matroid(args.a), load_matroid(args.b)), args.pretty)
    return 0


def cmd_components(args) -> int:
    parts = components(load_matroid(args.file))
    if args.pretty:
        print(f"components: {len(parts)}")
        for p in parts:
            print(f"  n={p.n} rank={p.rank} bases={len(p.bases)}")
    else:
        _emit({"components": [dump_matroid(p) for p in parts]})
    return 0


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidkit", description="Matroid computations over JSON file formats."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    for name, func, help_text in [
        ("validate", cmd_validate, "check the basis-exchange axiom"),
        ("info", cmd_info, "summary: n, rank, bases, loops, coloops, f-vector"),
        ("bases", cmd_subsets, "list the bases"),
        ("circuits", cmd_subsets, "list the circuits"),
        ("flats", cmd_flats, "list the flats by rank"),
        ("hyperplanes", cmd_subsets, "list the hyperplanes"),
        ("dual", cmd_dual, "dual matroid"),
        ("tutte", cmd_tutte, "Tutte polynomial"),
        ("polytope", cmd_polytope, "basis polytope vertices and dimension"),
        ("components", cmd_components, "connected components"),
    ]:
        add(name, func, help=help_text).add_argument("file", help="matroid file ('-' for stdin)")

    p = add("delete", cmd_delete, help="delete a set of elements")
    p.add_argument("--set", required=True, help="comma-separated indices")
    p.add_argument("file")
    p = add("contract", cmd_contract, help="contract a set of elements")
    p.add_argument("--set", required=True, help="comma-separated indices")
    p.add_argument("file")
    p = add("minor", cmd_minor, help="contract then delete (indices of the input matroid)")
    p.add_argument("--contract", default="", help="comma-separated indices")
    p.add_argument("--delete", default="", help="comma-separated indices")
    p.add_argument("file")

    p = add("isomorphic", cmd_isomorphic, help="isomorphism test with witness")
    p.add_argument("a")
    p.add_argument("b")
    p = add("has-minor", cmd_has_minor, help="minor search with witness")
    p.add_argument("a", help="host matroid file")
    p.add_argument("b", help="pattern matroid file")

    p = add("tutte-eval", cmd_tutte_eval, help="evaluate the Tutte polynomial")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("file")

    p = add("chromatic", cmd_chromatic, help="chromatic polynomial of a graph")
    p.add_argument("file", help="graph file")
    p = add("cycles", cmd_cycles, help="all simple cycles of a graph")
    p.add_argument("file", help="graph file")

    p = add("greedy", cmd_greedy, help="maximum-weight basis by the greedy rule")
    p.add_argument("--weights", required=True, help="JSON array of weights")
    p.add_argument("file")

    p = add("chow", cmd_chow, help="flat-algebra presentation, or one Hilbert value")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("file")

    p = add("uniform", cmd_uniform, help="uniform matroid U(rank, n)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("graphic", cmd_graphic, help="graphic matroid of a graph")
    p.add_argument("file", help="graph file")

    p = add("linear", cmd_linear, help="column matroid of an exact matrix")
    p.add_argument("--field", required=True, help="'q' for rationals or 'p:<prime>'")
    p.add_argument("file", help="matrix file")

    p = add("named", cmd_named, help="a named matroid")
    p.add_argument("name", help="fano or vamos")

    p = add("direct-sum", cmd_direct_sum, help="direct sum of two matroids")
    p.add_argument("a")
    p.add_argument("b")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
