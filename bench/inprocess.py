"""The two in-process workloads, `core_queries` and `invariants`.

Each is a seeded plan (matroids as index lists plus their ground truth, and a
fixed job list) and three functions over a job: run it against matroidkit,
turn the raw result into plain data, and check that data against the ground
truth. Library calls go through module attributes at call time
(`mk.greedy`, not a name bound at import), so the tracing wrappers that
replace those attributes see every call.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random
from types import SimpleNamespace

import matroidkit as mk

import inputs as gen
import truth as tr
from truth import Truth, bits, mask_of, same_family


@dataclass
class Item:
    """One matroid handed to the program: index lists, plus what is known."""

    name: str
    n: int
    bases: list[list[int]]
    truth: Truth
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    kind: str
    items: tuple[str, ...]
    args: tuple = ()


@dataclass
class Plan:
    items: dict[str, Item]
    jobs: list[Job]


def _item(name: str, m, truth: Truth, perm=None, **facts) -> Item:
    """Item from a program-built matroid, optionally relabeled by perm."""
    if perm is None:
        perm = list(range(m.n))
        bases = [list(b.indices()) for b in m.bases]
    else:
        bases = gen.relabel(m.basis_masks, perm)
        truth = tr.relabel_truth(truth, perm)
    return Item(name, m.n, bases, truth, facts)


def _graph(v, edges):
    return mk.graphic_matroid(mk.graph_from_edges(v, edges))


def _linear(rows, p):
    return mk.linear_matroid(mk.ExactMatrix(rows, field=p))


def fresh(item: Item):
    return mk.Matroid(item.n, item.bases)


# -- core_queries ----------------------------------------------------------------

# (field, rank, n) of the seeded column matroids; None is the rationals.
CORE_MATRICES = ((2, 4, 10), (2, 4, 9), (3, 4, 11), (3, 3, 12), (None, 5, 9), (None, 4, 12))
CORE_CACTI = (((3, 4, 5, 6), 7), ((3, 4, 5, 6, 7), 3))
# Work budget per rank/closure job, in basis-intersection steps, so that a
# job lasts about a millisecond whatever the basis count.
BATCH_WORK = 25000
IS_VALID_MAX_BASES = 400
FLATS_MAX_N = 10


def core_setup(seed: int) -> Plan:
    rng = Random(seed)
    items: list[Item] = []

    def add(name, m, truth, **facts):
        items.append(_item(name, m, truth, gen.permutation(rng, m.n), **facts))

    add("fano", mk.specific_matroid("fano"), tr.fano_truth())
    add("vamos", mk.specific_matroid("vamos"), tr.vamos_truth())
    for r, n in ((3, 8), (4, 9), (5, 10)):
        add(f"U{r}_{n}", mk.uniform_matroid(r, n), tr.uniform_truth(r, n))
    for k in (5, 6):
        edges = list(combinations(range(k), 2))
        add(
            f"MK{k}",
            _graph(k, edges),
            tr.graph_truth(k, edges),
            bases=tr.cayley(k),
            circuits=tr.complete_graph_cycles(k),
            hyperplanes=2 ** (k - 1) - 1,
        )
    for i, (p, r, n) in enumerate(CORE_MATRICES):
        rows = gen.random_matrix(rng, r, n, p)
        m, t = _linear(rows, p), tr.matrix_truth(rows, p)
        add(f"lin{i}_{p or 'q'}", m, t)
        if i % 2 == 0:
            add(f"lin{i}_{p or 'q'}_dual", mk.dual(m), tr.dual_truth(t))
    rows = gen.random_matrix(rng, 3, 6, 2)
    loop, coloop = mk.uniform_matroid(0, 1), mk.uniform_matroid(1, 1)
    add(
        "sum_loop_coloop",
        mk.direct_sum(mk.direct_sum(_linear(rows, 2), loop), coloop),
        tr.sum_truth([tr.matrix_truth(rows, 2), tr.uniform_truth(0, 1), tr.uniform_truth(1, 1)]),
    )
    for lengths, bridges in CORE_CACTI:
        v, edges, cycles, bridge_mask = gen.cactus(rng, lengths, bridges)
        nbases = 1
        for k in lengths:
            nbases *= k
        items.append(
            _item(
                f"cactus{len(edges)}",
                _graph(v, edges),
                tr.graph_truth(v, edges),
                bases=nbases,
                circuit_set=set(cycles),
                hyperplanes=bridge_mask.bit_count() + sum(comb(k, 2) for k in lengths),
            )
        )

    jobs: list[Job] = []
    for it in items:
        nb, n = len(it.bases), it.n
        small = n <= 12
        calls = max(20, min(400, BATCH_WORK // nb))
        jobs.append(Job("rank", (it.name,), (tuple(map(tuple, gen.random_subsets(rng, n, calls))),)))
        calls = max(5, min(200, BATCH_WORK // (nb * (n + 1))))
        jobs.append(Job("closure", (it.name,), (tuple(map(tuple, gen.random_subsets(rng, n, calls))),)))
        jobs.append(Job("circuits", (it.name,)))
        jobs.append(Job("hyperplanes", (it.name,)))
        if n <= FLATS_MAX_N:
            jobs.append(Job("flats", (it.name,)))
        if small and nb <= IS_VALID_MAX_BASES:
            jobs.append(Job("is_valid", (it.name,)))
        jobs.append(Job("independents", (it.name,), (3 if small else 2,)))
        jobs.append(Job("greedy", (it.name,), (tuple(gen.permutation(rng, n)),)))
    return Plan({it.name: it for it in items}, jobs)


def core_run(job: Job, plan: Plan, state: dict):
    """Jobs of one item share one Matroid, built fresh by its `rank` job."""
    name = job.items[0]
    if job.kind == "rank":
        m = state[name] = fresh(plan.items[name])
        return [m.rank_of(s) for s in job.args[0]]
    m = state[name]
    if job.kind == "closure":
        return [m.closure(s) for s in job.args[0]]
    if job.kind == "circuits":
        return m.circuits()
    if job.kind == "hyperplanes":
        return m.hyperplanes()
    if job.kind == "flats":
        return m.flats(), m.fvector()
    if job.kind == "is_valid":
        return m.is_valid()
    if job.kind == "independents":
        return m.independents(job.args[0])
    if job.kind == "greedy":
        return mk.greedy(m, list(job.args[0]))
    raise ValueError(job.kind)


def core_plain(job: Job, raw):
    if job.kind in ("rank", "is_valid", "greedy"):
        return raw
    if job.kind in ("closure", "circuits", "hyperplanes", "independents"):
        return [s.bits for s in raw]
    if job.kind == "flats":
        levels, fvector = raw
        return [[f.bits for f in level] for level in levels], list(fvector)
    raise ValueError(job.kind)


def check_pool(plan: Plan) -> list[str]:
    """Problems with the basis lists that the program's constructors produced."""
    errors = []
    for it in plan.items.values():
        got = [mask_of(b) for b in it.bases]
        if len(set(got)) != len(got):
            errors.append(f"{it.name}: repeated bases")
        elif "bases" in it.facts and len(got) != it.facts["bases"]:
            errors.append(f"{it.name}: {len(got)} bases, theorem says {it.facts['bases']}")
        elif it.n > Truth.TABLE_LIMIT:
            if any(it.truth.rank_of(b) != it.truth.rank or b.bit_count() != it.truth.rank for b in got):
                errors.append(f"{it.name}: a listed basis is not a basis")
        elif set(got) != set(it.truth.basis_masks):
            errors.append(f"{it.name}: basis list differs from the ground truth")
    return errors


def _subsets_ok(got, pred, count) -> bool:
    return len(set(got)) == len(got) == count and all(pred(m) for m in got)


def core_check(job: Job, plan: Plan, ans) -> str | None:
    it = plan.items[job.items[0]]
    t, f = it.truth, it.facts
    if job.kind == "rank":
        ok = ans == [t.rank_of(mask_of(s)) for s in job.args[0]]
    elif job.kind == "closure":
        ok = ans == [t.closure(mask_of(s)) for s in job.args[0]]
    elif job.kind == "circuits":
        if "circuit_set" in f:
            ok = same_family(ans, f["circuit_set"])
        elif "circuits" in f:
            ok = _subsets_ok(ans, t.is_circuit, f["circuits"])
        else:
            ok = same_family(ans, t.circuits())
    elif job.kind == "hyperplanes":

        def is_hyperplane(m):
            return t.rank_of(m) == t.rank - 1 and t.is_flat(m)

        if "hyperplanes" in f:
            ok = _subsets_ok(ans, is_hyperplane, f["hyperplanes"])
        else:
            ok = same_family(ans, t.flats()[t.rank - 1])
    elif job.kind == "flats":
        levels, fvector = ans
        want = t.flats()
        ok = (
            len(levels) == len(want)
            and all(same_family(a, w) for a, w in zip(levels, want))
            and fvector == [len(w) for w in want]
        )
    elif job.kind == "is_valid":
        ok = ans is True
    elif job.kind == "independents":
        ok = same_family(ans, t.independents(job.args[0]))
    elif job.kind == "greedy":
        weights = job.args[0]
        ok = ans == t.greedy_order(weights)
        if ok and it.n <= Truth.TABLE_LIMIT:
            ok = sum(weights[e] for e in ans) == _oracles().brute_max_basis_weight(t, weights)
    else:
        return f"unknown job kind {job.kind}"
    return None if ok else f"{job.kind} on {it.name}: answer disagrees with ground truth"


# -- invariants ------------------------------------------------------------------

# (field, rank, n, planted pattern) of the seeded minor-search hosts.
HOST_SHAPES = ((2, 4, 10, "F7*"), (2, 4, 10, "F7"), (2, 4, 9, "MK4"), (3, 3, 9, "U24"), (3, 4, 10, "U24"))
CHOW_SEEDED = ((2, 4, 7), (3, 4, 7))
KNOWN_HILBERT = {"vamos": [1, 70, 70, 1], "MK5": [1, 41, 41, 1]}


def _patterns(plan_items: list[Item]) -> None:
    plan_items.append(Item("U24", 4, [list(c) for c in combinations(range(4), 2)], tr.uniform_truth(2, 4)))
    fano = mk.specific_matroid("fano")
    plan_items.append(_item("F7", fano, tr.fano_truth()))
    plan_items.append(_item("F7*", mk.dual(fano), tr.dual_truth(tr.fano_truth())))
    plan_items.append(_item("MK4", _graph(4, gen.K4_EDGES), tr.graph_truth(4, gen.K4_EDGES)))


PLANTS = {"F7": tr.FANO_ROWS, "F7*": gen.F7STAR_GF2, "MK4": gen.MK4_GF2, "U24": gen.U24_GF3}
# Minors that a matroid representable over the field cannot have: binary
# matroids have no U(2,4) minor (Tutte), and F7, F7* are representable only in
# characteristic 2, so ternary matroids have neither; graphic matroids have none
# of the three.
EXCLUDED = {2: ("U24",), 3: ("F7", "F7*"), "graphic": ("U24", "F7", "F7*")}


def invariants_setup(seed: int) -> Plan:
    rng = Random(seed)
    items: list[Item] = []
    _patterns(items)
    jobs: list[Job] = []

    def add(name, m, truth):
        items.append(_item(name, m, truth, gen.permutation(rng, m.n)))
        return items[-1]

    for k in (5, 6):
        edges = list(combinations(range(k), 2))
        add(f"MK{k}", _graph(k, edges), tr.graph_truth(k, edges))
    # has_minor: symmetric hosts, then seeded hosts with one planted pattern.
    for pat in EXCLUDED["graphic"]:
        jobs.append(Job("has_minor", ("MK5", pat), ("absent",)))
    jobs.append(Job("has_minor", ("MK5", "MK4"), ("found",)))
    jobs.append(Job("has_minor", ("MK6", "U24"), ("absent",)))
    jobs.append(Job("has_minor", ("MK6", "MK4"), ("found",)))
    for i, (p, r, n, plant) in enumerate(HOST_SHAPES * 2):
        rows = gen.planted_matrix(rng, PLANTS[plant], r, n, p)
        host = add(f"host{i}", _linear(rows, p), tr.matrix_truth(rows, p))
        jobs.append(Job("has_minor", (host.name, plant), ("found",)))
        for pat in EXCLUDED[p]:
            jobs.append(Job("has_minor", (host.name, pat), ("absent",)))
    # isomorphism: seeded relabelings, and non-isomorphic pairs that agree on
    # n, rank and basis count.
    sources = ["MK5"] + [f"host{i}" for i in range(2 * len(HOST_SHAPES))] * 2
    for k, name in enumerate(sources):
        src = next(x for x in items if x.name == name)
        perm = gen.permutation(rng, src.n)
        copy = Item(
            f"{name}_relabeled{k}", src.n, gen.relabel([mask_of(b) for b in src.bases], perm),
            tr.relabel_truth(src.truth, perm),
        )
        items.append(copy)
        jobs.append(Job("isomorphism", (name, copy.name), ("iso",)))
    for j, (p, r, n) in enumerate(((2, 4, 9), (2, 3, 8), (3, 3, 8), (3, 4, 8))):
        for k, (a, b) in enumerate(gen.noniso_pairs(rng, 2, r, n, p)):
            na = add(f"noniso{j}{k}a", _linear(a, p), tr.matrix_truth(a, p))
            nb_ = add(f"noniso{j}{k}b", _linear(b, p), tr.matrix_truth(b, p))
            jobs.append(Job("isomorphism", (na.name, nb_.name), ("noniso",)))
    # Tutte and chromatic polynomials.
    graphs = []
    for v, m in ((7, 12), (7, 13), (8, 13), (8, 14)):
        edges = gen.random_connected_graph(rng, v, m)
        graphs.append(add(f"graph{v}_{m}", _graph(v, edges), tr.graph_truth(v, edges)))
    for name in ["MK5", "MK6"] + [g.name for g in graphs]:
        jobs.append(Job("tutte", (name,)))
    for v, m in ((5, 7), (5, 8), (6, 8), (6, 9), (6, 10), (6, 11), (6, 12)):
        jobs.append(Job("chromatic", (), (v, tuple(gen.random_connected_graph(rng, v, m)))))
    # Graded flat algebra in every degree, and basis polytopes.
    add("vamos", mk.specific_matroid("vamos"), tr.vamos_truth())
    add("U4_6", mk.uniform_matroid(4, 6), tr.uniform_truth(4, 6))
    add("U4_7", mk.uniform_matroid(4, 7), tr.uniform_truth(4, 7))
    chow = ["vamos", "U4_6", "U4_7", "MK5"]
    for i, (p, r, n) in enumerate(CHOW_SEEDED):
        rows = gen.random_matrix(rng, r, n, p)
        chow.append(add(f"chow{i}", _linear(rows, p), tr.matrix_truth(rows, p)).name)
    for name in chow:
        for d in range(4):
            jobs.append(Job("chow", (name,), (d, False)))
    for name, d in (("vamos", 2), ("MK5", 1), ("U4_6", 1), ("chow0", 1), ("chow1", 1)):
        jobs.append(Job("chow", (name,), (d, True)))
    for name in ("MK5", "vamos", "F7", "U4_7", "host0", "host1", "host2", "host3", "chow0", "chow1"):
        jobs.append(Job("polytope", (name,)))
    return Plan({it.name: it for it in items}, jobs)


def invariants_run(job: Job, plan: Plan, state: dict):
    """Every job builds its matroids fresh, so no memo carries between jobs."""
    ms = [fresh(plan.items[name]) for name in job.items]
    if job.kind == "has_minor":
        return mk.has_minor(ms[0], ms[1])
    if job.kind == "isomorphism":
        return mk.isomorphism(ms[0], ms[1])
    if job.kind == "tutte":
        return mk.tutte_polynomial(ms[0])
    if job.kind == "chromatic":
        v, edges = job.args
        return mk.chromatic_polynomial(mk.graph_from_edges(v, edges))
    if job.kind == "chow":
        d, exact = job.args
        return mk.chow_hilbert(ms[0], d, exact=exact)
    if job.kind == "polytope":
        return mk.polytope_vertices(ms[0])
    raise ValueError(job.kind)


def invariants_plain(job: Job, raw):
    if job.kind == "has_minor":
        return None if raw is None else (raw.contract.bits, raw.delete.bits, tuple(raw.iso.perm))
    if job.kind == "isomorphism":
        return None if raw is None else tuple(raw.perm)
    if job.kind == "tutte":
        return [tuple(t) for t in raw.sorted_terms()]
    if job.kind == "chromatic":
        return tuple(raw.coeffs)
    if job.kind == "chow":
        return raw
    if job.kind == "polytope":
        return raw.ambient_dim, tuple(map(tuple, raw.vertices)), raw.dim
    raise ValueError(job.kind)


def _maps_onto(perm, src: set[int], dst: set[int]) -> bool:
    return sorted(perm) == list(range(len(perm))) and {
        mask_of(perm[e] for e in bits(b)) for b in src
    } == dst


def invariants_check(job: Job, plan: Plan, ans) -> str | None:
    its = [plan.items[name] for name in job.items]
    if job.kind == "has_minor":
        host, pat = its
        if job.args[0] == "absent":
            ok = ans is None
        else:
            ok = ans is not None and not ans[0] & ans[1]
            if ok:
                minor = host.truth.minor_bases(ans[0], ans[1])
                ok = len(ans[2]) == pat.n and _maps_onto(ans[2], minor, set(pat.truth.basis_masks))
    elif job.kind == "isomorphism":
        a, b = its
        if job.args[0] == "iso":
            ok = ans is not None and _maps_onto(ans, set(a.truth.basis_masks), set(b.truth.basis_masks))
        else:
            ok = ans is None and a.truth.rank_generating() != b.truth.rank_generating()
    elif job.kind == "tutte":
        t = its[0].truth
        poly = {(i, j): c for i, j, c in ans}
        ok = (
            poly == _oracles().tutte_by_activities(t).terms()
            and sum(poly.values()) == len(t.basis_masks)
            and sum(c * 2**i * 2**j for (i, j), c in poly.items()) == 2**t.n
        )
    elif job.kind == "chromatic":
        v, edges = job.args
        g = SimpleNamespace(v=v, edges=edges)
        ok = all(
            sum(c * k**i for i, c in enumerate(ans)) == _oracles().brute_coloring_count(g, k)
            for k in range(v + 1)
        )
    elif job.kind == "chow":
        d = job.args[0]
        name = its[0].name
        want = its[0].truth.fy_hilbert()
        ok = want == want[::-1] and want == KNOWN_HILBERT.get(name, want) and ans == want[d]
    elif job.kind == "polytope":
        t = its[0].truth
        ambient, verts, dim = ans
        want = {gen.indicator(b, t.n) for b in t.basis_masks}
        ok = (
            ambient == t.n
            and len(verts) == len(want)
            and set(verts) == want
            and dim == t.n - len(t.components())
        )
    else:
        return f"unknown job kind {job.kind}"
    return None if ok else f"{job.kind} on {','.join(job.items)} {job.args}: answer disagrees with ground truth"


@cache
def _oracles():
    """tests/oracles.py, loaded read-only from the checkout on first use."""
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
