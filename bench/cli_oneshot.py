"""The `cli_oneshot` workload: one `python -m matroidkit.cli` process per job.

Set-up writes every input document into a work directory. A pass spawns the
jobs one after another (closed loop, one in flight) and waits for each; the
per-child peak RSS comes from wait4. Outputs are read after the pass and
checked after all passes, outside the timed region.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import inputs as gen
import truth as tr
from truth import Truth, bits, mask_of, same_family

SHIM = Path(__file__).resolve().parent / "cli_shim.py"

# Queries on matroid files and how many jobs of each a pass issues.
QUERY_COUNTS = {
    "info": 6, "circuits": 6, "flats": 6, "bases": 5, "dual": 5, "minor": 6,
    "delete": 5, "contract": 5, "greedy": 6, "tutte-eval": 6, "validate": 6,
    "isomorphic": 8, "components": 5, "direct-sum": 5,
}
STDIN_EVERY = 12
MALFORMED = ("string_index", "float_index", "nonlist_basis", "string_edges", "string_weights", "bool_n")


@dataclass
class Doc:
    name: str
    path: Path
    truth: Truth
    bases: list[int]


@dataclass
class Job:
    kind: str
    args: list[str]
    stdin: str | None = None
    check: dict = field(default_factory=dict)


@dataclass
class Plan:
    workdir: Path
    docs: dict[str, Doc]
    jobs: list[Job]
    graphs: dict[str, tuple] = field(default_factory=dict)


def _write(path: Path, obj) -> Path:
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def _csv(indices) -> str:
    return ",".join(map(str, sorted(indices)))


def setup(seed: int, workdir: Path) -> Plan:
    rng = Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = Plan(workdir, {}, [])
    jobs = plan.jobs

    def doc(name, truth, bases=None):
        bases = sorted(truth.basis_masks if bases is None else bases)
        path = _write(
            workdir / f"{name}.json",
            {"format": "matroid-v1", "n": truth.n, "bases": [bits(b) for b in bases]},
        )
        plan.docs[name] = Doc(name, path, truth, bases)
        return name

    def relabeled(name, t):
        return doc(name, tr.relabel_truth(t, gen.permutation(rng, t.n)))

    # Constructors.
    graph_specs = {
        "K5": (5, list(combinations(range(5), 2))),
        "K6": (6, list(combinations(range(6), 2))),
        "GP52": (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        "sparse0": (7, gen.random_connected_graph(rng, 7, 10)),
        "sparse1": (8, gen.random_connected_graph(rng, 8, 11)),
        "K7": (7, list(combinations(range(7), 2))),
        "K8": (8, list(combinations(range(8), 2))),
    }
    for i, (name, (v, edges)) in enumerate(graph_specs.items()):
        edges = [tuple(sorted(e)) for e in edges]
        if i % 2:
            text = f"{v} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)
        else:
            text = json.dumps({"format": "graph-v1", "v": v, "edges": [list(e) for e in edges]})
        path = _write(workdir / f"graph_{name}.txt", text)
        plan.graphs[name] = (v, edges)
        cmd = "cycles" if name in ("K7", "K8") else "graphic"
        jobs.append(Job(cmd, [cmd, str(path)], check={"graph": name}))
    for k, (p, r, n) in enumerate(((None, 3, 7), (None, 4, 9), (3, 3, 8), (3, 4, 8))):
        rows = gen.random_matrix(rng, r, n, p)
        if p is None:
            # Every third entry is halved, so rational strings such as "3/2" occur.
            rows = [[Fraction(x, 2 if (i + j) % 3 == 0 else 1) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        name = f"matrix{k}"
        path = _write(workdir / f"{name}.json", {"format": "matrix-v1", "rows": r, "cols": n, "entries": [[str(x) for x in row] for row in rows]})
        plan.docs[name] = Doc(name, path, tr.matrix_truth(rows, p), [])
        jobs.append(Job("linear", ["linear", "--field", "q" if p is None else f"p:{p}", str(path)], check={"doc": name}))
    for _ in range(2):
        n = rng.randint(5, 9)
        r = rng.randint(1, min(4, n - 1))
        jobs.append(Job("uniform", ["uniform", "--rank", str(r), "--n", str(n)], check={"r": r, "n": n}))
    for name in ("fano", "vamos"):
        jobs.append(Job("named", ["named", name], check={"name": name}))

    # Documents for the queries, all with n <= 10.
    k5 = tr.graph_truth(5, graph_specs["K5"][1])
    pool = [
        relabeled("mk5", k5),
        relabeled("fano", tr.fano_truth()),
        relabeled("vamos", tr.vamos_truth()),
        doc("u37", tr.uniform_truth(3, 7)),
    ]
    for i, (p, r, n) in enumerate(((2, 3, 7), (3, 3, 8), (None, 4, 9), (2, 4, 9))):
        pool.append(doc(f"lin{i}", tr.matrix_truth(gen.random_matrix(rng, r, n, p), p)))
    part = tr.matrix_truth(gen.random_matrix(rng, 2, 4, 3), 3)
    pool.append(doc("sum_loop_coloop", tr.sum_truth([part, tr.uniform_truth(0, 1), part, tr.uniform_truth(1, 1)])))
    small = [name for name in pool if plan.docs[name].truth.n <= 8]
    invalid = []
    for i in range(3):
        t = plan.docs[rng.choice(pool)].truth
        family = set(rng.sample(t.basis_masks, max(2, len(t.basis_masks) // 3)))
        invalid.append(doc(f"invalid{i}", tr.bases_truth(t.n, sorted(family)), sorted(family)))
    iso_pairs = [(name, relabeled(f"{name}_relabeled", plan.docs[name].truth)) for name in rng.sample(pool, 4)]
    for k, (p, r, n) in enumerate(((2, 3, 7), (3, 3, 7), (2, 4, 8), (3, 4, 8))):
        a, b = gen.noniso_pairs(rng, 1, r, n, p)[0]
        iso_pairs.append((doc(f"noniso{k}a", tr.matrix_truth(a, p)), doc(f"noniso{k}b", tr.matrix_truth(b, p))))

    queries = []
    for kind, count in QUERY_COUNTS.items():
        for i in range(count):
            name = pool[(i * 5 + len(queries)) % len(pool)]
            t = plan.docs[name].truth
            check = {"doc": name}
            if kind in ("minor", "delete", "contract"):
                order = gen.permutation(rng, t.n)
                c = order[: rng.randint(0, 2)] if kind != "delete" else []
                d = order[2 : 2 + rng.randint(0, 2)] if kind != "contract" else []
                check.update(contract=mask_of(c), delete=mask_of(d))
                extra = {"minor": ["--contract", _csv(c), "--delete", _csv(d)],
                         "delete": ["--set", _csv(d)], "contract": ["--set", _csv(c)]}[kind]
            elif kind == "greedy":
                weights = gen.permutation(rng, t.n)
                check["weights"] = weights
                extra = ["--weights", json.dumps(weights)]
            elif kind == "tutte-eval":
                x, y = rng.choice(((1, 1), (2, 2), (2, 1), (1, 2), (3, 2), (2, 0), (0, 2)))
                check.update(x=x, y=y)
                extra = ["--x", str(x), "--y", str(y)]
            elif kind == "validate":
                if i < len(invalid):
                    name = check["doc"] = invalid[i]
                extra = []
            elif kind == "isomorphic":
                a, b = iso_pairs[i % len(iso_pairs)]
                check = {"a": a, "b": b, "iso": not b.startswith("noniso")}
                queries.append(Job(kind, [kind, str(plan.docs[a].path), str(plan.docs[b].path)], check=check))
                continue
            elif kind == "direct-sum":
                other = small[i % len(small)]
                check["other"] = other
                queries.append(Job(kind, [kind, str(plan.docs[name].path), str(plan.docs[other].path)], check=check))
                continue
            else:
                extra = []
            queries.append(Job(kind, [kind, *extra, str(plan.docs[name].path)], check=check))
    for i, job in enumerate(queries):
        if i % STDIN_EVERY == 0:
            job.stdin, job.args[-1] = job.args[-1], "-"
    jobs.extend(queries)

    # Malformed documents: each must be refused with exit 1 and an error line.
    bad = {
        "string_index": {"format": "matroid-v1", "n": 3, "bases": [["a"]]},
        "float_index": {"format": "matroid-v1", "n": 3, "bases": [[0, 1.0]]},
        "nonlist_basis": {"format": "matroid-v1", "n": 3, "bases": [0]},
        "string_edges": {"format": "graph-v1", "v": 3, "edges": ["01", "12"]},
        "bool_n": {"format": "matroid-v1", "n": True, "bases": [[0]]},
    }
    for kind in MALFORMED:
        if kind == "string_weights":
            t = plan.docs["u37"]
            weights = json.dumps(["x"] + list(range(t.truth.n - 1)))
            jobs.append(Job("malformed", ["greedy", "--weights", weights, str(t.path)], check={"case": kind}))
            continue
        path = _write(workdir / f"bad_{kind}.json", bad[kind])
        cmd = "graphic" if kind == "string_edges" else "info"
        jobs.append(Job("malformed", [cmd, str(path)], check={"case": kind}))

    rng.shuffle(jobs)
    return plan


# -- running -------------------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    rss_kb: int
    spans: dict | None = None


def run_pass(plan: Plan, env: dict, traced: bool, tag: str, timed) -> list[Outcome]:
    """Run every job once, each inside `timed(fn)`, and read the outcomes."""
    outdir = plan.workdir / tag
    outdir.mkdir()
    meta = []
    for i, job in enumerate(plan.jobs):
        files = [outdir / f"{i}.{ext}" for ext in ("out", "err", "spans")]
        meta.append((timed(lambda: _spawn(job, env, traced, *files)), files))
    outcomes = []
    for (code, rss, spawned, reaped), (out, err, spans) in meta:
        data = None
        if traced and spans.exists():
            data = json.loads(spans.read_text())
            data["interp_s"] = data.pop("start") - spawned
            data["exit_s"] = reaped - data.pop("end")
        outcomes.append(Outcome(code, out.read_text(), err.read_text(), rss, data))
    return outcomes


def _spawn(job: Job, env: dict, traced: bool, out: Path, err: Path, spans: Path):
    if traced:
        argv = [sys.executable, str(SHIM), str(spans), *job.args]
    else:
        argv = [sys.executable, "-m", "matroidkit.cli", *job.args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, job.stdin or os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    spawned = time.time()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, spawned, time.time()


def plain(job: Job, o: Outcome):
    return (o.code, o.out, "Traceback" in o.err, any(ln.startswith("error:") for ln in o.err.splitlines()))


# -- checking -----------------------------------------------------------------------


def _bases_of(doc: dict) -> list[int]:
    return [mask_of(b) for b in doc["bases"]]


def check(job: Job, plan: Plan, ans) -> str | None:
    code, out, traceback, error_line = ans
    c = job.check
    if job.kind == "malformed":
        if code == 1 and error_line and not traceback:
            return None
        return f"malformed input {c['case']}: exit {code}, traceback={traceback}, error line={error_line}"
    if code != 0:
        return f"{job.kind} {' '.join(job.args)}: exit {code}"
    try:
        ok = _check_output(job, plan, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{job.kind}: unreadable output ({exc})"
    return None if ok else f"{job.kind} {' '.join(job.args)}: output disagrees with ground truth"


def _check_output(job: Job, plan: Plan, out: str) -> bool:
    c = job.check
    lines = out.splitlines()
    first = json.loads(lines[0]) if job.kind not in ("validate", "isomorphic", "tutte-eval") else lines[0]
    if job.kind in ("graphic", "cycles"):
        v, edges = plan.graphs[c["graph"]]
        t = tr.graph_truth(v, edges)
        if job.kind == "cycles":
            got = [mask_of(cy["edges"]) for cy in first["cycles"]]
            return (
                first["count"] == len(got) == tr.complete_graph_cycles(v)
                and len(set(got)) == len(got)
                and all(t.is_circuit(m) for m in got)
            )
        got = _bases_of(first)
        count = tr.spanning_tree_count(v, edges)
        if len(edges) == comb(v, 2) and count != tr.cayley(v):
            return False
        return first["n"] == len(edges) and len(got) == count and same_family(got, t.basis_masks)
    if job.kind == "linear":
        t = plan.docs[c["doc"]].truth
        return first["n"] == t.n and same_family(_bases_of(first), t.basis_masks)
    if job.kind == "uniform":
        want = [mask_of(s) for s in combinations(range(c["n"]), c["r"])]
        return first["n"] == c["n"] and len(want) == comb(c["n"], c["r"]) and same_family(_bases_of(first), want)
    if job.kind == "named":
        t = tr.fano_truth() if c["name"] == "fano" else tr.vamos_truth()
        return same_family(_bases_of(first), t.basis_masks)
    if job.kind == "isomorphic":
        a, b = plan.docs[c["a"]].truth, plan.docs[c["b"]].truth
        if not c["iso"]:
            return first == "false" and a.rank_generating() != b.rank_generating()
        perm = json.loads(lines[1])["isomorphism"]
        return (
            first == "true"
            and sorted(perm) == list(range(a.n))
            and {mask_of(perm[e] for e in bits(m)) for m in a.basis_masks} == set(b.basis_masks)
        )
    d = plan.docs[c["doc"]]
    t = d.truth
    if job.kind == "validate":
        return first == ("true" if tr.bases_truth(t.n, d.bases).is_matroid() else "false")
    if job.kind == "tutte-eval":
        return int(first) == t.tutte_eval(c["x"], c["y"])
    if job.kind == "info":
        union, inter = 0, t.full
        for b in t.basis_masks:
            union |= b
            inter &= b
        return first == {
            "n": t.n, "rank": t.rank, "bases": len(t.basis_masks),
            "loops": bits(t.full & ~union), "coloops": bits(inter),
            "fvector": [len(level) for level in t.flats()],
        }
    if job.kind == "circuits":
        return same_family([mask_of(s) for s in first["circuits"]], t.circuits())
    if job.kind == "flats":
        want = t.flats()
        return len(first["flats"]) == len(want) and all(
            same_family([mask_of(s) for s in got], w) for got, w in zip(first["flats"], want)
        )
    if job.kind == "bases":
        return same_family([mask_of(s) for s in first["bases"]], t.basis_masks)
    if job.kind == "dual":
        return first["n"] == t.n and same_family(_bases_of(first), [t.full ^ b for b in t.basis_masks])
    if job.kind in ("minor", "delete", "contract"):
        want = t.minor_bases(c["contract"], c["delete"])
        return first["n"] == t.n - (c["contract"] | c["delete"]).bit_count() and same_family(_bases_of(first), want)
    if job.kind == "greedy":
        return first == t.greedy_order(c["weights"])
    if job.kind == "components":
        parts = first["components"]
        want = t.components()
        return len(parts) == len(want) and all(
            p["n"] == x.bit_count() and same_family(_bases_of(p), t.minor_bases(0, t.full ^ x))
            for p, x in zip(parts, want)
        )
    if job.kind == "direct-sum":
        u = plan.docs[c["other"]].truth
        want = [a | b << t.n for a in t.basis_masks for b in u.basis_masks]
        return first["n"] == t.n + u.n and same_family(_bases_of(first), want)
    raise ValueError(job.kind)
