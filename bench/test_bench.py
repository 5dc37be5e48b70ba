"""Tests of the benchmark itself: seeded job lists and the answer checkers.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cli_oneshot  # noqa: E402
import inprocess  # noqa: E402
import matroidkit.cli  # noqa: E402

SETUPS = {"core_queries": inprocess.core_setup, "invariants": inprocess.invariants_setup}
RUNS = {
    "core_queries": (inprocess.core_run, inprocess.core_plain, inprocess.core_check),
    "invariants": (inprocess.invariants_run, inprocess.invariants_plain, inprocess.invariants_check),
}


def fingerprint(plan) -> list:
    items = sorted((it.name, it.n, it.bases) for it in plan.items.values())
    return [items, [(j.kind, j.items, j.args) for j in plan.jobs]]


def cli_fingerprint(plan) -> list:
    files = sorted((p.name, p.read_text()) for p in plan.workdir.iterdir() if p.is_file())
    rel = lambda a: a.replace(str(plan.workdir), "<dir>")  # noqa: E731
    jobs = [(j.kind, [rel(a) for a in j.args], j.stdin and rel(j.stdin), repr(j.check)) for j in plan.jobs]
    return [files, jobs]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_inprocess_job_lists_follow_the_seed(name):
    setup = SETUPS[name]
    assert fingerprint(setup(5)) == fingerprint(setup(5))
    assert fingerprint(setup(5)) != fingerprint(setup(6))


def test_cli_job_lists_follow_the_seed(tmp_path):
    a = cli_fingerprint(cli_oneshot.setup(5, tmp_path / "a"))
    b = cli_fingerprint(cli_oneshot.setup(5, tmp_path / "b"))
    c = cli_fingerprint(cli_oneshot.setup(6, tmp_path / "c"))
    assert a == b and a != c
    assert len(cli_oneshot.setup(5, tmp_path / "d").jobs) >= 100


# -- a deliberately wrong answer of every job kind must fail its check -----------------


def _wrong(kind: str, ans):
    """A different answer of the same shape."""
    if ans is None:
        return (0, 0, (0, 1, 2, 3))
    if kind in ("rank", "closure"):
        return [ans[0] ^ 1] + ans[1:]
    if kind in ("circuits", "hyperplanes", "independents"):
        return ans[:-1]
    if kind == "flats":
        levels, fvector = ans
        return [levels[0], levels[1][:-1], *levels[2:]], fvector
    if kind == "is_valid":
        return not ans
    if kind == "greedy":
        return ans[1:] + ans[:1]
    if kind in ("has_minor", "isomorphism"):
        return None
    if kind == "tutte":
        (i, j, c), *rest = ans
        return [(i, j, c + 1), *rest]
    if kind == "chromatic":
        return (ans[0] + 1, *ans[1:])
    if kind == "chow":
        return ans + 1
    if kind == "polytope":
        ambient, verts, dim = ans
        return ambient, verts, dim + 1
    raise AssertionError(kind)


def _cheapest_jobs(plan):
    """One job per (kind, expectation), the one on the fewest elements."""
    best = {}
    for job in plan.jobs:
        key = (job.kind, job.args[:1] if job.kind in ("has_minor", "isomorphism") else ())
        size = sum(plan.items[n].n for n in job.items) or job.args[0]
        if key not in best or size < best[key][0]:
            best[key] = (size, job)
    return [job for _, job in best.values()]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_inprocess_checker_rejects_wrong_answers(name):
    plan = SETUPS[name](3)
    run, plain, check = RUNS[name]
    state = {}
    if name == "core_queries":
        for job in plan.jobs:  # later jobs of an item need its Matroid
            if job.kind == "rank":
                run(job, plan, state)
    kinds = set()
    for job in _cheapest_jobs(plan):
        ans = plain(job, run(job, plan, state))
        assert check(job, plan, ans) is None, job
        assert check(job, plan, _wrong(job.kind, ans)) is not None, job
        kinds.add(job.kind)
    assert kinds == {j.kind for j in plan.jobs}


def _run_cli(job):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = open(job.stdin) if job.stdin else io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = matroidkit.cli.run(list(job.args))
    except Exception:  # an escaping exception is what a traceback exit looks like
        return (1, out.getvalue(), True, False)
    finally:
        if sys.stdin is not stdin:
            sys.stdin.close()
        sys.stdin = stdin
    return (code, out.getvalue(), False, any(ln.startswith("error:") for ln in err.getvalue().splitlines()))


def _wrong_cli(kind: str, out: str) -> str:
    first, *rest = out.splitlines()
    if kind in ("validate", "isomorphic"):
        return {"true": "false", "false": "true"}[first] + "\n"
    if kind == "tutte-eval":
        return f"{int(first) + 1}\n"
    doc = json.loads(first)
    if kind == "greedy":
        return json.dumps(doc[::-1]) + "\n"
    if kind == "info":
        doc["bases"] += 1
    elif kind == "cycles":
        doc["cycles"].pop()
    elif kind == "flats":
        doc["flats"][1].pop()
    elif kind == "components":
        doc["components"][0]["bases"].pop()
    else:
        key = next(k for k in ("bases", "circuits") if k in doc)
        doc[key].pop()
    return json.dumps(doc) + "\n"


def test_cli_checker_rejects_wrong_answers(tmp_path):
    plan = cli_oneshot.setup(3, tmp_path)
    seen = {}
    for job in plan.jobs:
        seen.setdefault((job.kind, job.check.get("iso")), job)
    for job in seen.values():
        ans = _run_cli(job)
        if job.kind == "malformed":
            good = (1, "", False, True)
            assert cli_oneshot.check(job, plan, good) is None
            assert cli_oneshot.check(job, plan, (1, "", True, False)) is not None
            assert cli_oneshot.check(job, plan, (0, "{}\n", False, False)) is not None
            continue
        assert cli_oneshot.check(job, plan, ans) is None, job
        code, out, tb, err = ans
        assert cli_oneshot.check(job, plan, (code, _wrong_cli(job.kind, out), tb, err)) is not None, job
        assert cli_oneshot.check(job, plan, (1, out, True, False)) is not None, job
    assert {k for k, _ in seen} == {j.kind for j in plan.jobs}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "core_queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_printed_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
