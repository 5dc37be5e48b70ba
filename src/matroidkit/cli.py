"""Command-line front end exposing the library over stable JSON file formats.

File formats:
  matroid-v1  {"format": "matroid-v1", "n": int, "labels": [str]?, "bases": [[int]]}
  graph-v1    {"format": "graph-v1", "v": int, "edges": [[int, int]]}
              or plain text: first line "v m", then m lines "u w"
  matrix-v1   {"format": "matrix-v1", "rows": r, "cols": c, "entries": [[str]]}
              entries are integers, or strings [+-]digits, optionally /digits

Exit codes: 0 success, 1 domain error (bad input values or file contents),
2 usage error. Boolean queries print "true"/"false" and exit 0 either way;
`isomorphic` and `has-minor` add a witness JSON object on a second line when
the answer is true.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from typing import TYPE_CHECKING

from .core import Matroid
from .subsets import GroundSubset, iter_bits

# Every other module is imported by the handler that uses it, so a process
# loads only what its command runs.
if TYPE_CHECKING:
    from .graphs import Graph
    from .linalg import ExactMatrix

# The most bases a constructor may enumerate, flat pairs `chow` may compare,
# contract/delete pairs `has-minor` may try, or ordered basis pairs `validate`
# may check (M(K6), 1,296 bases and 1.7 million pairs, took 13.6 s).
MAX_ENUMERATED = 10**6
# The highest rank whose flats `info`, `flats` and `chow` may list, against a 10 s budget. Rank r
# gives at least 2^r flats: `flats` lists the 2^18 of one rank-18 basis in 1.6-2.3 s, but `info`
# took 9-11 s on U(18,19) and 25-34 s on U(18,20), a 12 KB document of 190 bases (fresh processes,
# 2-core x86, Python 3.11). ROADMAP item 4 replaces this cap with a count of the flats.
MAX_FLATS_RANK = 18
# The largest matroid ground set and graph vertex count the loaders and constructors accept.
MAX_GROUND = 4096
# A string matrix entry; Fraction() also reads exponents, and Fraction("1e19999999") takes 26 s.
MATRIX_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# -- file I/O ------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _is_int(x) -> bool:
    """JSON integers only: bool is an int subclass in Python, and floats such
    as 1.0 are not indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _loads(text: str):
    """JSON from outside the program; malformed or too deeply nested text is a ValueError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from None


def _parse_json(text: str, expected_format: str) -> dict:
    obj = _loads(text)
    if not isinstance(obj, dict) or obj.get("format") != expected_format:
        raise ValueError(f"expected a {expected_format!r} document")
    return obj


def load_matroid(path: str) -> Matroid:
    obj = _parse_json(_read_text(path), "matroid-v1")
    n = obj.get("n")
    bases = obj.get("bases")
    if not _is_int(n) or not isinstance(bases, list):
        raise ValueError("matroid-v1 needs integer 'n' and a list 'bases'")
    _refuse(n, MAX_GROUND, f"a ground set of n = {n} elements")
    if not all(isinstance(b, list) for b in bases) or {type(i) for b in bases for i in b} - {int}:
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
    doc["bases"] = [list(iter_bits(b)) for b in matroid.basis_masks]
    return doc


def load_graph(path: str) -> Graph:
    from .graphs import graph_from_edges
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        obj = _parse_json(text, "graph-v1")
        v = obj.get("v")
        edges = obj.get("edges")
        if not _is_int(v) or not isinstance(edges, list):
            raise ValueError("graph-v1 needs integer 'v' and a list 'edges'")
        if not all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges):
            raise ValueError("every edge must be a pair of integer vertices")
        edges = [tuple(e) for e in edges]
    else:
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty graph file")
        try:  # a line of other than two integers fails to unpack
            v, m = map(int, lines[0])
            edges = [(int(u), int(w)) for u, w in lines[1:]]
            ok = len(edges) == m
        except ValueError:
            ok = False
        if not ok:
            raise ValueError("graph text format is 'v m' then m lines 'u w'")
    _refuse(v, MAX_GROUND, f"a graph of v = {v} vertices")
    return graph_from_edges(v, edges)


def load_matrix(path: str, field: int | None) -> ExactMatrix:
    from .linalg import ExactMatrix, require_prime

    obj = _parse_json(_read_text(path), "matrix-v1")
    rows = obj.get("rows")
    cols = obj.get("cols")
    entries = obj.get("entries")
    if not _is_int(rows) or not _is_int(cols) or not isinstance(entries, list):
        raise ValueError("matrix-v1 needs 'rows', 'cols', and 'entries'")
    if len(entries) != rows or any(not isinstance(r, list) or len(r) != cols for r in entries):
        raise ValueError("entry grid does not match the declared shape")
    _refuse(cols, MAX_GROUND, f"a matrix of {cols} columns")
    if field is not None:
        require_prime(field)  # so that a ValueError below is an entry's
    if not {type(e) for row in entries for e in row} <= {int, str}:
        raise ValueError("bad matrix entry: entries must be integers or strings")
    if not all(MATRIX_ENTRY.fullmatch(e) for row in entries for e in row if type(e) is str):
        raise ValueError("bad matrix entry: strings must be decimal integers or 'a/b' rationals")
    try:  # ExactMatrix converts each entry, once
        return ExactMatrix(entries, field=field, cols=cols)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad matrix entry: {exc}") from None


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


def _refuse(count: int, limit: int, what: str) -> None:
    """The one rule at the boundary: count the work first, refuse it over the limit."""
    if count > limit:
        raise ValueError(f"{what} exceeds the limit of {limit}")


def _flats(m: Matroid) -> tuple[tuple[GroundSubset, ...], ...]:
    """The flats by rank, refused up front above rank MAX_FLATS_RANK."""
    _refuse(m.rank, MAX_FLATS_RANK, f"rank {m.rank} (at least 2^{m.rank} flats)")
    return m.flats()


def _load_small_graph(path: str) -> Graph:
    """A graph whose spanning forests are few enough to enumerate."""
    from .graphs import component_count
    graph = load_graph(path)
    n, r = len(graph.edges), graph.v - component_count(graph)
    _refuse(math.comb(n, r), MAX_ENUMERATED, f"the candidate-basis count C({n}, {r})")
    return graph


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
    print(f"n={matroid.n} rank={matroid.rank} bases={len(matroid.basis_masks)}")
    bases = (_fmt_subset(iter_bits(b), matroid.labels) for b in matroid.basis_masks)
    print("bases: " + ", ".join(bases))


# -- subcommands ----------------------------------------------------------------
# A handler prints its answer, or returns the matroid a constructor or a
# minor command outputs, which `run` prints.


def cmd_validate(args) -> None:
    m = load_matroid(args.file)
    count = len(m.basis_masks)
    _refuse(count * (count - 1), MAX_ENUMERATED, f"the ordered pair count of {count} bases")
    print("true" if m.is_valid() else "false")


def cmd_info(args) -> None:
    m = load_matroid(args.file)
    levels = _flats(m)
    info = {
        "n": m.n,
        "rank": m.rank,
        "bases": len(m.basis_masks),
        "loops": list(m.loops().indices()),
        "coloops": list(m.coloops().indices()),
        "fvector": [len(level) for level in levels],
    }
    if args.pretty:
        for key, value in info.items():
            print(f"{key}: {value}")
    else:
        _emit(info)


def cmd_subsets(args) -> None:
    """`bases`, `circuits` and `hyperplanes`: the subset list the command names."""
    m = load_matroid(args.file)
    query = {"circuits": m.circuits, "hyperplanes": m.hyperplanes}
    masks = m.basis_masks if args.command == "bases" else [s.bits for s in query[args.command]()]
    if args.pretty:
        print(f"{args.command}:")
        for b in masks:
            print("  " + _fmt_subset(iter_bits(b), m.labels))
    else:
        _emit({args.command: [list(iter_bits(b)) for b in masks]})


def cmd_flats(args) -> None:
    m = load_matroid(args.file)
    levels = _flats(m)
    if args.pretty:
        for k, level in enumerate(levels):
            print(f"rank {k}: " + ", ".join(_fmt_subset(f.indices(), m.labels) for f in level))
    else:
        _emit({"flats": [[list(f.indices()) for f in level] for level in levels]})


def cmd_minor(args) -> Matroid:
    """`dual`, `delete`, `contract` and `minor`: the matroid the command names."""
    from . import transform
    m = load_matroid(args.file)
    if args.command == "dual":
        return transform.dual(m)
    if args.command == "minor":
        return transform.minor(m, parse_indices(args.contract), parse_indices(args.delete))
    op = transform.deletion if args.command == "delete" else transform.contraction
    return op(m, parse_indices(args.set))


def cmd_search(args) -> None:
    """`isomorphic` and `has-minor`: "true" and the witness as JSON, or "false"."""
    import shlex

    from .search import has_minor, isomorphism
    a, b = load_matroid(args.a), load_matroid(args.b)
    if args.command == "has-minor":
        c, d = a.rank - b.rank, a.n - a.rank + b.rank - b.n  # contract and delete set sizes
        pairs = math.comb(a.n, c) * math.comb(a.n - c, d) if c >= 0 and d >= 0 else 0
        _refuse(pairs, MAX_ENUMERATED, f"a search of C({a.n}, {c}) * C({a.n - c}, {d}) pairs")
    witness = (isomorphism if args.command == "isomorphic" else has_minor)(a, b)
    print("true" if witness is not None else "false")
    if witness is None:
        return
    if args.command == "isomorphic":
        _emit({"isomorphism": list(witness.perm)})
        return
    c, d = list(witness.contract.indices()), list(witness.delete.indices())
    # a path other than stdin's "-" that starts with "-" would read as an option
    paths = (f"./{f}" if f.startswith("-") and f != "-" else f for f in (args.a, args.b))
    host, pattern = map(shlex.quote, paths)
    cset, dset = (shlex.quote(",".join(map(str, s))) for s in (c, d))
    replay = f"matroidkit minor --contract {cset} --delete {dset} {host}"
    _emit(
        {
            "contract": c,
            "delete": d,
            "isomorphism": list(witness.iso.perm),
            "replay": [replay, f"matroidkit isomorphic - {pattern}"],
        }
    )


def cmd_tutte(args) -> None:
    """`tutte` and `tutte-eval`: the Tutte polynomial, or its value at (x, y)."""
    from .tutte import tutte_polynomial
    poly = tutte_polynomial(load_matroid(args.file))
    if args.command == "tutte-eval":
        print(poly.evaluate(args.x, args.y))
    elif args.pretty:
        print(str(poly))
    else:
        _emit({"format": "bivar-poly-v1", "terms": [list(t) for t in poly.sorted_terms()]})


def cmd_chromatic(args) -> None:
    from .tutte import chromatic_polynomial
    poly = chromatic_polynomial(_load_small_graph(args.file))
    if args.pretty:
        print(poly.factored())
    else:
        _emit({"coefficients": list(poly.coeffs), "factored": poly.factored()})


def cmd_cycles(args) -> None:
    from .graphs import get_cycles
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


def cmd_greedy(args) -> None:
    from .optimize import greedy
    weights = _loads(args.weights)
    # NaN compares false both ways, so it would derail the greedy order
    if not isinstance(weights, list) or not all(
        _is_int(w) or (isinstance(w, float) and not math.isnan(w)) for w in weights
    ):
        raise ValueError("--weights must be a JSON array of numbers")
    _emit(greedy(load_matroid(args.file), weights))


def cmd_polytope(args) -> None:
    from .algebra import polytope_vertices
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


def cmd_chow(args) -> None:
    from .algebra import chow_hilbert, chow_presentation
    m = load_matroid(args.file)
    if args.degree is None or 0 < args.degree < m.rank - 1:
        flats = sum(len(level) for level in _flats(m)[1:-1])
        # the quadrics, and the chain counts of the Hilbert function, compare every pair
        _refuse(flats * (flats - 1) // 2, MAX_ENUMERATED, f"the pair count of {flats} proper flats")
    if args.degree is not None:
        print(chow_hilbert(m, args.degree))
        return
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


def cmd_construct(args) -> Matroid:
    """`uniform`, `graphic`, `linear`, `named` and `direct-sum`: the matroid the command builds."""
    from . import construct
    if args.command == "uniform":
        n, r = args.n, args.rank
        _refuse(n, MAX_GROUND, f"a ground set of n = {n} elements")
        if 0 <= r <= n:  # uniform_matroid refuses the rest itself
            _refuse(math.comb(n, r), MAX_ENUMERATED, f"the candidate-basis count C({n}, {r})")
        return construct.uniform_matroid(r, n)
    if args.command == "graphic":
        return construct.graphic_matroid(_load_small_graph(args.file))
    if args.command == "linear":
        from .linalg import echelon_insert
        matrix = load_matrix(args.file, parse_field(args.field))
        # Stream the rows: with rank k so far, the final rank r lies in k..top.
        # C(n, r) is unimodal in r, so once both ends are over the limit every
        # r is. After the last row top = k, which checks C(n, r) itself.
        n, pivots = matrix.cols, {}
        for i, row in enumerate(matrix.entries, 1):
            echelon_insert(pivots, {c: v for c, v in enumerate(row) if v}, matrix.field)
            k, top = len(pivots), min(n, len(pivots) + matrix.rows - i)
            what = f"the candidate-basis count C({n}, {k})"
            what += f" to C({n}, {top})" if top > k else ""
            _refuse(min(math.comb(n, k), math.comb(n, top)), MAX_ENUMERATED, what)
        return construct.linear_matroid(matrix)
    if args.command == "named":
        return construct.specific_matroid(args.name)
    a, b = load_matroid(args.a), load_matroid(args.b)
    _refuse(a.n + b.n, MAX_GROUND, f"a ground set of n = {a.n + b.n} elements")
    count = len(a.basis_masks) * len(b.basis_masks)
    _refuse(count, MAX_ENUMERATED, f"the direct sum's basis count {count}")
    return construct.direct_sum(a, b)


def cmd_components(args) -> None:
    from .construct import components
    parts = components(load_matroid(args.file))
    if args.pretty:
        print(f"components: {len(parts)}")
        for p in parts:
            print(f"  n={p.n} rank={p.rank} bases={len(p.basis_masks)}")
    else:
        _emit({"components": [dump_matroid(p) for p in parts]})


# -- wiring ---------------------------------------------------------------------

FILE = {"file": {}}
MATROID = {"file": {"help": "matroid file ('-' for stdin)"}}
GRAPH = {"file": {"help": "graph file"}}
PAIR = {"a": {}, "b": {}}
INDICES = {"help": "comma-separated indices"}
REQUIRED_INT = {"type": int, "required": True}
ONE_SET = {"--set": {"required": True, **INDICES}, **FILE}

# name -> (handler, help, its arguments in order); every command also takes --pretty
COMMANDS = {
    "validate": (cmd_validate, "check the basis-exchange axiom", MATROID),
    "info": (cmd_info, "summary: n, rank, bases, loops, coloops, f-vector", MATROID),
    "bases": (cmd_subsets, "list the bases", MATROID),
    "circuits": (cmd_subsets, "list the circuits", MATROID),
    "flats": (cmd_flats, "list the flats by rank", MATROID),
    "hyperplanes": (cmd_subsets, "list the hyperplanes", MATROID),
    "dual": (cmd_minor, "dual matroid", MATROID),
    "tutte": (cmd_tutte, "Tutte polynomial", MATROID),
    "polytope": (cmd_polytope, "basis polytope vertices and dimension", MATROID),
    "components": (cmd_components, "connected components", MATROID),
    "delete": (cmd_minor, "delete a set of elements", ONE_SET),
    "contract": (cmd_minor, "contract a set of elements", ONE_SET),
    "minor": (
        cmd_minor,
        "contract then delete (indices of the input matroid)",
        {"--contract": {"default": "", **INDICES}, "--delete": {"default": "", **INDICES}, **FILE},
    ),
    "isomorphic": (cmd_search, "isomorphism test with witness", PAIR),
    "has-minor": (
        cmd_search,
        "minor search with witness",
        {"a": {"help": "host matroid file"}, "b": {"help": "pattern matroid file"}},
    ),
    "tutte-eval": (
        cmd_tutte,
        "evaluate the Tutte polynomial",
        {"--x": REQUIRED_INT, "--y": REQUIRED_INT, **FILE},
    ),
    "chromatic": (cmd_chromatic, "chromatic polynomial of a graph", GRAPH),
    "cycles": (cmd_cycles, "all simple cycles of a graph", GRAPH),
    "greedy": (
        cmd_greedy,
        "maximum-weight basis by the greedy rule",
        {"--weights": {"required": True, "help": "JSON array of weights"}, **FILE},
    ),
    "chow": (
        cmd_chow,
        "flat-algebra presentation, or one Hilbert value",
        {"--degree": {"type": int}, **FILE},
    ),
    "uniform": (
        cmd_construct,
        "uniform matroid U(rank, n)",
        {"--rank": REQUIRED_INT, "--n": REQUIRED_INT},
    ),
    "graphic": (cmd_construct, "graphic matroid of a graph", GRAPH),
    "linear": (
        cmd_construct,
        "column matroid of an exact matrix",
        {
            "--field": {"required": True, "help": "'q' for rationals or 'p:<prime>'"},
            "file": {"help": "matrix file"},
        },
    ),
    "named": (cmd_construct, "a named matroid", {"name": {"help": "fano or vamos"}}),
    "direct-sum": (cmd_construct, "direct sum of two matroids", PAIR),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one,
    which is all a run needs. With one command built, the usage line still
    lists every choice; with all built, argparse writes that list itself and
    names the argument "command" in its errors."""
    parser = argparse.ArgumentParser(
        prog="matroidkit", description="Matroid computations over JSON file formats."
    )
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}" if one else None
    )
    for name in [command] if one else COMMANDS:
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        for arg, options in arguments.items():
            p.add_argument(arg, **options)
        p.set_defaults(func=func)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.func(args)
        if result is not None:
            _emit_matroid(result, args.pretty)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    # The collection at interpreter exit then skips every object made so far.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
