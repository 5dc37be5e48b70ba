#!/usr/bin/env python3
"""matroidkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (cli_oneshot, core_queries or invariants) from the root of a
checkout, as a closed loop: one client, jobs issued back to back, never more
than one in flight. It sets up the seeded inputs, repeats the workload's fixed
job list while whole passes fit in S seconds (at least once), checks every
answer against independent ground truth afterwards, and prints a summary and,
as its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with --trace 1
half of the time runs untraced and half traced, and the metrics are the
per-layer ones from the traced passes. End-to-end times are scaled to
reference speed (see Clock); the summary also prints them as measured. See
bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import TRACED, Tracer, install  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
WORKLOADS = ("cli_oneshot", "core_queries", "invariants")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
# Reference-loop duration that defines reference speed (see Clock): its
# typical value between jobs on the machine the benchmark was defined on.
REF_NOMINAL_S = 450e-6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer call counts worth watching (every traced span also has `_s`).
CALLS = (
    "core.init", "core.rank_of", "transform.dual", "transform.deletion", "transform.contraction",
    "transform.restriction", "transform.minor", "search.has_minor", "linalg.matrix_rank",
)
PER_LAYER = {
    **{f"{span}_s": "s" for span in sorted({s for names in TRACED.values() for s in names.values()} - {"cli.run"})},
    **{f"{name}_calls": "count" for name in CALLS},
    "cli.import_s": "s",
    "cli.run_self_s": "s",
    "cli.interp_s": "s",
    "cli.exit_s": "s",
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "cli.exit_error": "count",
    "cli.traceback": "count",
    "construct.bases_out": "count",
    "graphs.cycles_out": "count",
    "core.circuits_out": "count",
    "core.flats_out": "count",
    "search.candidates_built": "count",
    "search.contractions_built": "count",
    "search.iso_calls_in_minor": "count",
    "search.iso_hit_ratio": "ratio",
    "linalg.elim_rows": "count",
    "linalg.elim_cols": "count",
    "linalg.elim_dense_bytes": "B",
    "trace.overhead_ratio": "ratio",
    "trace.top_span_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "matroidkit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None  # a checkout without .git records only the source hash
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "MATROIDKIT_THREADS": os.environ.get("MATROIDKIT_THREADS"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_loop_s() -> float:
    """Duration of a fixed pure-Python loop of the kind matroidkit runs
    (integer bit operations and dict stores)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(1500):
        m = (i * 2654435761) & 0xFFFFF
        acc += (m & (m >> 3)).bit_count()
        table[m & 255] = acc
    return time.perf_counter() - t0


class Clock:
    """Times each piece of work between two runs of the reference loop, and
    scales the duration to reference speed: duration x REF_NOMINAL_S / (mean
    of the two reference runs around it).

    The machine this benchmark was defined on is shared, and the speed of the
    same fixed work drifts by up to a quarter over minutes. Scaling by a
    reference timed next to the work cancels most of that drift for short
    jobs (the coefficient of variation of a core_queries pass fell from 13% to
    2%), while any change in the program's own work still shows in full. It
    does not help jobs of several seconds, whose slow-downs the loop does not
    see.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._prev = reference_loop_s()

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        duration = time.perf_counter() - t0
        nxt = reference_loop_s()
        self.raw.append(duration)
        self.scaled.append(duration * 2 * REF_NOMINAL_S / (self._prev + nxt))
        self._prev = nxt
        return result


def import_probe():
    """A fresh interpreter that imports matroidkit.cli and exits."""
    subprocess.run([sys.executable, "-c", "import matroidkit.cli"], env=child_env(), check=True)


# -- workload adapters ------------------------------------------------------------


class JobError:
    """The answer of a job that raised."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self):
        return f"JobError({self.message!r})"


class InProcess:
    """core_queries / invariants: jobs are library calls in this process."""

    def __init__(self, name: str):
        import inprocess

        self.mod = inprocess
        prefix = "core" if name == "core_queries" else "invariants"
        setup = getattr(inprocess, f"{prefix}_setup")
        self.setup = lambda seed, workdir: setup(seed)
        self._run = getattr(inprocess, f"{prefix}_run")
        self._plain = getattr(inprocess, f"{prefix}_plain")
        self.check = getattr(inprocess, f"{prefix}_check")
        self.rss_kb = 0
        self.layer_counts: dict = {}

    def _job(self, job, plan, state):
        try:
            return self._run(job, plan, state)
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            return JobError(f"{type(exc).__name__}: {exc}")

    def run_pass(self, plan, tracer, clock: Clock) -> list:
        state, raws = {}, []
        uninstall = install(tracer) if tracer else None
        try:
            for job in plan.jobs:
                raws.append(clock.time(lambda: self._job(job, plan, state)))
        finally:
            if uninstall:
                uninstall()
        if tracer is None:
            self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return [r if isinstance(r, JobError) else self._plain(j, r) for j, r in zip(plan.jobs, raws)]

    def pool_errors(self, plan) -> list[str]:
        return self.mod.check_pool(plan)


class CliOneshot:
    """cli_oneshot: every job is a fresh `python -m matroidkit.cli` process."""

    def __init__(self, name: str):
        import cli_oneshot

        self.mod = cli_oneshot
        self.setup = cli_oneshot.setup
        self.check = cli_oneshot.check
        self.env = child_env()
        self.rss_kb = 0
        self.layer_counts: dict = {}
        self._passes = 0

    def run_pass(self, plan, tracer, clock: Clock) -> list:
        self._passes += 1
        outcomes = self.mod.run_pass(plan, self.env, tracer is not None, f"pass{self._passes}", clock.time)
        if tracer is None:
            self.rss_kb = max([self.rss_kb] + [o.rss_kb for o in outcomes])
        else:
            counts = self.layer_counts
            for job, o in zip(plan.jobs, outcomes):
                code, out, traceback, error_line = self.mod.plain(job, o)
                for key, value in (
                    ("cli.bytes_in", _input_bytes(job)),
                    ("cli.bytes_out", len(out.encode())),
                    ("cli.exit_error", code == 1 and error_line),
                    ("cli.traceback", traceback),
                ):
                    counts[key] = counts.get(key, 0) + value
                if o.spans:
                    tracer.merge(o.spans)
                    for phase in ("import_s", "interp_s", "exit_s"):
                        tracer.add(f"cli.{phase}", o.spans[phase])
                        tracer.top_s += o.spans[phase]
        return [self.mod.plain(j, o) for j, o in zip(plan.jobs, outcomes)]

    def pool_errors(self, plan) -> list[str]:
        return []


def _input_bytes(job) -> int:
    paths = [job.stdin] if job.stdin else []
    paths += [a for a in job.args if os.path.sep in a]
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


# -- measuring ------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, counts: dict, clocks: list, untraced_wall: float) -> dict:
    """Per-layer values per pass of the traced job list (times as measured)."""
    passes = len(clocks)
    stats, edges = tracer.stats, tracer.edges
    counts = {**tracer.counts, **counts}
    out = {}
    for name in PER_LAYER:
        if name.endswith("_calls"):
            value = stats.get(name[: -len("_calls")], [0, 0, 0])[0]
        elif name.endswith("_s") and name[:-2] in stats:
            value = stats[name[:-2]][2]
        else:
            value = counts.get(name, 0)
        out[name] = value / passes
    out["cli.run_self_s"] = stats.get("cli.run", [0, 0, 0])[2] / passes
    for metric, child in (
        ("search.candidates_built", "transform.deletion"),
        ("search.contractions_built", "transform.contraction"),
        ("search.iso_calls_in_minor", "search.isomorphism"),
    ):
        out[metric] = edges.get(("search.has_minor", child), 0) / passes
    iso = stats.get("search.isomorphism", [0])[0]
    out["search.iso_hit_ratio"] = counts.get("search.iso_hits", 0) / iso if iso else 0.0
    traced_wall = statistics.median(sum(c.scaled) for c in clocks)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    out["trace.top_span_share"] = tracer.top_s / sum(sum(c.raw) for c in clocks)
    return out


def run_passes(workload, plan, seconds: float, tracer, answers: list) -> list[Clock]:
    """Whole passes while the next one is expected to fit in `seconds`; the
    answers of every pass are appended to `answers`."""
    clocks, elapsed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        clock = Clock()
        answers.extend(enumerate(workload.run_pass(plan, tracer, clock)))
        clocks.append(clock)
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return clocks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matroidkit" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not a matroidkit checkout (no src/matroidkit or tests/oracles.py)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    workload = (CliOneshot if args.workload == "cli_oneshot" else InProcess)(args.workload)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path) -> int:
    start_s = time.perf_counter() - T_START
    setup_clock = Clock()
    for i in range(SETUP_REPEATS):
        plan = setup_clock.time(lambda: workload.setup(args.seed, workdir / f"setup{i}"))
    probe_clock = Clock()
    for _ in range(IMPORT_PROBES):
        probe_clock.time(import_probe)
    setup_s = statistics.median(probe_clock.scaled) + statistics.median(setup_clock.scaled)

    answers: list = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    clocks = run_passes(workload, plan, seconds, None, answers)
    rss_mb = workload.rss_kb / 1024
    wall_s = statistics.median(sum(c.scaled) for c in clocks)
    layers = None
    if args.trace:
        tracer = Tracer()
        traced = run_passes(workload, plan, seconds, tracer, answers)
        layers = layer_metrics(tracer, workload.layer_counts, traced, wall_s)

    verdicts = {}
    for i, ans in answers:  # each distinct answer of a job is checked once
        key = (i, repr(ans))
        if key not in verdicts:
            job = plan.jobs[i]
            if isinstance(ans, JobError):
                verdicts[key] = f"{job.kind}: raised {ans.message}"
            else:
                verdicts[key] = workload.check(job, plan, ans)
    failures = [verdicts[(i, repr(ans))] for i, ans in answers if verdicts[(i, repr(ans))]]
    failed_jobs = [i for i, ans in answers if verdicts[(i, repr(ans))]]
    errors = workload.pool_errors(plan)
    attempted, failed = len(answers), len(failures)
    malformed = sum(plan.jobs[i].kind == "malformed" for i in failed_jobs)

    lat = [x for c in clocks for x in c.scaled]
    raw = [x for c in clocks for x in c.raw]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_p90_ms": percentile(lat, 90) * 1000,
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1 - failed / attempted,
    }
    print(f"# environment {json.dumps(environment(args.seed))}")
    print(
        f"# workload={args.workload} seed={args.seed} passes={len(clocks)} jobs_per_pass={len(plan.jobs)} "
        f"latency_samples={len(lat)} attempted={attempted} failed={failed} "
        f"(malformed-input slice: {malformed}) failed_ratio={failed / attempted:.4f} "
        f"process_start_to_setup={start_s:.3f}s"
    )
    print(
        f"# as measured, before scaling to reference speed: wall_s={statistics.median(sum(c.raw) for c in clocks):.4f} "
        f"job_p50_ms={statistics.median(raw) * 1000:.4f} job_p90_ms={percentile(raw, 90) * 1000:.4f} "
        f"machine_speed={sum(lat) / sum(raw):.3f}"
    )
    for message in errors + sorted(set(failures)):
        print(f"# FAILED {message}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END[name]}")
    if layers:
        for name, value in layers.items():
            print(f"# {name} = {value:.6g} {PER_LAYER[name]}")
        chosen = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in layers.items()}
    else:
        chosen = {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}
    correct = not errors and failed == malformed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
