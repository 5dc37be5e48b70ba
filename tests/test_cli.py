import contextlib
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroidkit import cli, complete_graph, graphic_matroid, uniform_matroid
from matroidkit.cli import MAX_GROUND, dump_matroid, load_graph, load_matroid, run
from oracles import cyclic_sts13, invalid_families, pasch_trade, projective_lines, sparse_paving


@pytest.fixture()
def m_file(tmp_path):
    doc = {
        "format": "matroid-v1",
        "n": 4,
        "labels": ["a", "b", "c", "d"],
        "bases": [[0, 1], [0, 2]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def k5_file(tmp_path):
    doc = {
        "format": "graph-v1",
        "v": 5,
        "edges": [[u, w] for u in range(5) for w in range(u + 1, 5)],
    }
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys, m_file, tmp_path):
    code, out, _ = invoke(capsys, "validate", m_file)
    assert code == 0 and out.strip() == "true"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "matroid-v1", "n": 4, "bases": [[0, 1], [2, 3]]}))
    code, out, _ = invoke(capsys, "validate", str(bad))
    assert code == 0 and out.strip() == "false"


def test_info(capsys, m_file):
    code, out, _ = invoke(capsys, "info", m_file)
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "rank": 2,
        "bases": 2,
        "loops": [3],
        "coloops": [0],
        "fvector": [1, 2, 1],
    }


def test_query_commands(capsys, m_file):
    code, out, _ = invoke(capsys, "bases", m_file)
    assert code == 0 and json.loads(out) == {"bases": [[0, 1], [0, 2]]}
    code, out, _ = invoke(capsys, "circuits", m_file)
    assert json.loads(out) == {"circuits": [[3], [1, 2]]}
    code, out, _ = invoke(capsys, "flats", m_file)
    assert json.loads(out) == {"flats": [[[3]], [[0, 3], [1, 2, 3]], [[0, 1, 2, 3]]]}
    code, out, _ = invoke(capsys, "hyperplanes", m_file)
    assert json.loads(out) == {"hyperplanes": [[0, 3], [1, 2, 3]]}


def test_matroid_file_roundtrip(capsys, m_file, tmp_path):
    m = load_matroid(m_file)
    rendered = tmp_path / "again.json"
    rendered.write_text(json.dumps(dump_matroid(m)))
    again = load_matroid(str(rendered))
    assert again == m and again.labels == m.labels


def test_dual_delete_contract_pipeline(capsys, m_file, tmp_path):
    code, out, _ = invoke(capsys, "dual", m_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["bases"] == [[1, 3], [2, 3]]
    assert doc["labels"] == ["a", "b", "c", "d"]
    code, out, _ = invoke(capsys, "delete", "--set", "3", m_file)
    assert json.loads(out)["labels"] == ["a", "b", "c"]
    code, out, _ = invoke(capsys, "contract", "--set", "1", m_file)
    doc = json.loads(out)
    assert doc["labels"] == ["a", "c", "d"] and doc["bases"] == [[0]]


def test_minor_and_isomorphic(capsys, k5_file, tmp_path):
    code, m5_out, _ = invoke(capsys, "graphic", k5_file)
    m5_path = tmp_path / "m5.json"
    m5_path.write_text(m5_out)
    code, out, _ = invoke(capsys, "minor", "--contract", "9", "--delete", "3,5,8", str(m5_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6 and len(doc["bases"]) == 16
    # --contract defaults to '', the empty index list
    code, out, _ = invoke(capsys, "minor", "--delete", "3,5,8", str(m5_path))
    assert code == 0 and out == invoke(capsys, "delete", "--set", "3,5,8", str(m5_path))[1]


def test_isomorphic_outputs_witness(capsys, m_file, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(
        json.dumps({"format": "matroid-v1", "n": 4, "bases": [[1, 3], [3, 2]]})
    )
    code, out, _ = invoke(capsys, "isomorphic", m_file, str(other))
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "true"
    assert "isomorphism" in json.loads(lines[1])


def test_has_minor_witness_replays(capsys, k5_file, tmp_path, monkeypatch):
    _, m5_out, _ = invoke(capsys, "graphic", k5_file)
    m5_path = tmp_path / "m5.json"
    m5_path.write_text(m5_out)
    k4 = {"format": "graph-v1", "v": 4, "edges": [[u, w] for u in range(4) for w in range(u + 1, 4)]}
    k4_path = tmp_path / "k4.json"
    k4_path.write_text(json.dumps(k4))
    _, m4_out, _ = invoke(capsys, "graphic", str(k4_path))
    m4_path = tmp_path / "m4.json"
    m4_path.write_text(m4_out)

    code, out, _ = invoke(capsys, "has-minor", str(m5_path), str(m4_path))
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "true"
    witness = json.loads(lines[1])
    assert {"contract", "delete", "isomorphism", "replay"} <= set(witness)

    # replay: run the minor command, pipe its output into isomorphic via stdin
    cset = ",".join(map(str, witness["contract"]))
    dset = ",".join(map(str, witness["delete"]))
    code, minor_out, _ = invoke(
        capsys, "minor", "--contract", cset, "--delete", dset, str(m5_path)
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(minor_out))
    code, out, _ = invoke(capsys, "isomorphic", "-", str(m4_path))
    assert code == 0 and out.strip().splitlines()[0] == "true"


def test_has_minor_replay_quotes_paths(capsys, tmp_path, monkeypatch):
    """The replay lines are shell commands: a path holding a space and a quote
    comes back whole from shlex.split, a plain path is printed as is, and a
    relative path that starts with "-" gets a "./" so it reads as no option."""
    folder = tmp_path / "my dir's"
    folder.mkdir()
    host, pattern = folder / "u 24.json", folder / "u'12.json"
    host.write_text(json.dumps(dump_matroid(uniform_matroid(2, 4))))
    pattern.write_text(json.dumps(dump_matroid(uniform_matroid(1, 2))))
    code, out, _ = invoke(capsys, "has-minor", str(host), str(pattern))
    assert code == 0 and out.splitlines()[0] == "true"
    replay = json.loads(out.splitlines()[1])["replay"]
    minor_argv = shlex.split(replay[0])
    assert minor_argv[0] == "matroidkit" and minor_argv[-1] == str(host)
    code, minor_out, _ = invoke(capsys, *minor_argv[1:])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(minor_out))
    code, out, _ = invoke(capsys, *shlex.split(replay[1])[1:])
    assert code == 0 and out.splitlines()[0] == "true"

    plain = tmp_path / "u24.json"
    plain.write_text(host.read_text())
    (tmp_path / "u23.json").write_text(json.dumps(dump_matroid(uniform_matroid(2, 3))))
    code, out, _ = invoke(capsys, "has-minor", str(plain), str(tmp_path / "u23.json"))
    replay = json.loads(out.splitlines()[1])["replay"]
    assert replay == [
        f"matroidkit minor --contract '' --delete 0 {plain}",
        f"matroidkit isomorphic - {tmp_path / 'u23.json'}",
    ]

    monkeypatch.chdir(tmp_path)
    (tmp_path / "-u24.json").write_text(host.read_text())
    (tmp_path / "-u12.json").write_text(pattern.read_text())
    code, out, _ = invoke(capsys, "has-minor", "--", "-u24.json", "-u12.json")
    assert code == 0 and out.splitlines()[0] == "true"
    replay = json.loads(out.splitlines()[1])["replay"]
    assert replay[0].endswith(" ./-u24.json") and replay[1] == "matroidkit isomorphic - ./-u12.json"
    code, minor_out, _ = invoke(capsys, *shlex.split(replay[0])[1:])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(minor_out))
    code, out, _ = invoke(capsys, *shlex.split(replay[1])[1:])
    assert code == 0 and out.splitlines()[0] == "true"


def test_tutte_commands(capsys, k5_file, tmp_path):
    _, m5_out, _ = invoke(capsys, "graphic", k5_file)
    m5_path = tmp_path / "m5.json"
    m5_path.write_text(m5_out)
    code, out, _ = invoke(capsys, "tutte-eval", "--x", "1", "--y", "1", str(m5_path))
    assert code == 0 and out.strip() == "125"
    code, out, _ = invoke(capsys, "tutte", str(m5_path))
    doc = json.loads(out)
    assert doc["format"] == "bivar-poly-v1"
    assert [4, 0, 1] in doc["terms"]


def test_chromatic_and_cycles(capsys, k5_file):
    code, out, _ = invoke(capsys, "chromatic", k5_file)
    doc = json.loads(out)
    assert doc["coefficients"] == [0, 24, -50, 35, -10, 1]
    assert doc["factored"] == "k(k - 1)(k - 2)(k - 3)(k - 4)"
    code, out, _ = invoke(capsys, "cycles", k5_file)
    assert json.loads(out)["count"] == 37


def test_graph_text_format(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    g = load_graph(str(path))
    assert g.v == 3 and len(g.edges) == 3


def test_greedy_command(capsys, tmp_path):
    fano = tmp_path / "fano.json"
    code, out, _ = invoke(capsys, "named", "fano")
    fano.write_text(out)
    code, out, _ = invoke(
        capsys, "greedy", "--weights", "[0, 0.693, 1.333, 1, -4, 2, 3.14159]", str(fano)
    )
    assert code == 0 and json.loads(out) == [6, 5, 3]


def test_polytope_command(capsys, tmp_path):
    k4 = {"format": "graph-v1", "v": 4, "edges": [[u, w] for u in range(4) for w in range(u + 1, 4)]}
    g_path = tmp_path / "k4.json"
    g_path.write_text(json.dumps(k4))
    _, m4_out, _ = invoke(capsys, "graphic", str(g_path))
    m4_path = tmp_path / "m4.json"
    m4_path.write_text(m4_out)
    code, out, _ = invoke(capsys, "polytope", str(m4_path))
    doc = json.loads(out)
    assert (doc["ambient_dim"], doc["num_vertices"], doc["dim"]) == (6, 16, 5)


def test_chow_command(capsys, tmp_path):
    _, out, _ = invoke(capsys, "uniform", "--rank", "2", "--n", "3")
    m_path = tmp_path / "u23.json"
    m_path.write_text(out)
    code, out, _ = invoke(capsys, "chow", str(m_path))
    doc = json.loads(out)
    assert len(doc["variables"]) == 3 and len(doc["quadrics"]) == 3
    code, out, _ = invoke(capsys, "chow", "--degree", "1", str(m_path))
    assert out.strip() == "1"


@pytest.mark.parametrize("name, value", [("fano", "8"), ("vamos", "70")])
def test_chow_degree_one_output(capsys, tmp_path, name, value):
    _, out, _ = invoke(capsys, "named", name)
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    code, out, err = invoke(capsys, "chow", "--degree", "1", str(path))
    assert (code, out, err) == (0, value + "\n", "")


def test_chow_exact_flag_is_a_usage_error(capsys, tmp_path):
    _, out, _ = invoke(capsys, "named", "fano")
    path = tmp_path / "fano.json"
    path.write_text(out)
    code, out, err = invoke(capsys, "chow", "--degree", "1", "--exact", str(path))
    assert code == 2 and out == ""
    assert err.startswith("usage:") and "Traceback" not in err


def test_large_enumerations_are_refused_up_front(capsys, tmp_path):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "uniform", "--rank", "10", "--n", "40")
    assert code == 1 and out == "" and err.startswith("error:") and "C(40, 10)" in err
    code, out, err = invoke(capsys, "uniform", "--rank", str(10**9), "--n", str(2 * 10**9))
    assert code == 1 and out == "" and err.startswith("error:")
    rows = [[str(int(i == j or (i + 1) * (j + 1) % 7 == 3)) for j in range(40)] for i in range(10)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"format": "matrix-v1", "rows": 10, "cols": 40, "entries": rows}))
    code, out, err = invoke(capsys, "linear", "--field", "p:2", str(path))
    assert code == 1 and out == "" and err.startswith("error:") and "C(40, 10)" in err
    assert time.perf_counter() - start < 5


def test_graphic_command_refuses_dense_graphs(capsys, tmp_path):
    """A spanning forest of K_v has v - 1 of the C(v, 2) edges, so K8 is the
    first complete graph over the limit: C(28, 7) > 10^6."""
    start = time.perf_counter()
    for v, binom in ((12, "C(66, 11)"), (8, "C(28, 7)")):
        edges = [[u, w] for u in range(v) for w in range(u + 1, v)]
        path = tmp_path / f"k{v}.json"
        path.write_text(json.dumps({"format": "graph-v1", "v": v, "edges": edges}))
        code, out, err = invoke(capsys, "graphic", str(path))
        assert code == 1 and out == "" and err.startswith("error:") and binom in err
        assert "Traceback" not in err
    assert time.perf_counter() - start < 5
    # two disjoint K5s: 20 edges of rank 8, C(20, 8) = 125,970 candidates
    k5 = [[u, w] for u in range(5) for w in range(u + 1, 5)]
    path = tmp_path / "two_k5.json"
    path.write_text(json.dumps({"format": "graph-v1", "v": 10, "edges": k5 + [[u + 5, w + 5] for u, w in k5]}))
    code, out, _ = invoke(capsys, "graphic", str(path))
    assert code == 0 and len(json.loads(out)["bases"]) == 125**2


def test_chromatic_command_refuses_dense_graphs(capsys, tmp_path):
    """`chromatic` builds the graphic matroid first, so it makes the same
    up-front check as `graphic`."""
    start = time.perf_counter()
    k12 = [[u, w] for u in range(12) for w in range(u + 1, 12)]
    path = tmp_path / "k12.json"
    path.write_text(json.dumps({"format": "graph-v1", "v": 12, "edges": k12}))
    code, out, err = invoke(capsys, "chromatic", str(path))
    assert code == 1 and out == "" and err.startswith("error:") and "C(66, 11)" in err
    assert time.perf_counter() - start < 5
    k6 = [[u, w] for u in range(6) for w in range(u + 1, 6)]
    path = tmp_path / "k6.json"
    path.write_text(json.dumps({"format": "graph-v1", "v": 6, "edges": k6}))
    code, out, _ = invoke(capsys, "chromatic", str(path))
    assert code == 0 and json.loads(out) == {
        "coefficients": [0, -120, 274, -225, 85, -15, 1],
        "factored": "k(k - 1)(k - 2)(k - 3)(k - 4)(k - 5)",
    }


def test_searches_on_deep_documents(capsys, tmp_path):
    """1,100-element documents are deeper than Python's recursion limit; the
    searches keep their own stacks and answer."""
    n = 1100
    docs = {
        "u1n": {"format": "matroid-v1", "n": n, "bases": [[e] for e in range(n)]},
        "first": {"format": "matroid-v1", "n": n, "bases": [[0]]},
        "last": {"format": "matroid-v1", "n": n, "bases": [[n - 1]]},
        "cycle": {"format": "graph-v1", "v": n, "edges": [[i, (i + 1) % n] for i in range(n)]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    u1n, first, last, cycle = (str(tmp_path / f"{name}.json") for name in docs)
    code, out, err = invoke(capsys, "tutte", u1n)
    assert code == 0 and err == "" and len(json.loads(out)["terms"]) == n
    code, out, err = invoke(capsys, "tutte-eval", "--x", "2", "--y", "2", u1n)
    assert code == 0 and err == "" and int(out) == 2**n
    code, out, err = invoke(capsys, "chromatic", cycle)
    assert code == 0 and err == "" and json.loads(out)["coefficients"][-2:] == [-n, 1]
    code, out, err = invoke(capsys, "cycles", cycle)
    assert code == 0 and err == "" and json.loads(out)["count"] == 1
    code, out, err = invoke(capsys, "isomorphic", first, last)
    lines = out.splitlines()
    assert code == 0 and err == "" and lines[0] == "true"
    assert json.loads(lines[1])["isomorphism"][0] == n - 1


def test_isomorphic_answers_sparse_documents_at_the_ground_limit(capsys, tmp_path):
    """Two 100-byte documents on MAX_GROUND elements: the candidate lists and
    pair counts stay as small as the basis lists."""
    paths = []
    for e in (0, 1):
        paths.append(tmp_path / f"b{e}.json")
        paths[-1].write_text(json.dumps({"format": "matroid-v1", "n": MAX_GROUND, "bases": [[e]]}))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "isomorphic", *map(str, paths))
    assert time.perf_counter() - start < 10
    lines = out.splitlines()
    assert code == 0 and err == "" and lines[0] == "true"
    perm = json.loads(lines[1])["isomorphism"]
    assert sorted(perm) == list(range(MAX_GROUND)) and perm[0] == 1


@pytest.mark.parametrize(
    "command, text",
    [
        (cmd, json.dumps({"format": "matroid-v1", "n": 10**9, "bases": [[0]]}))
        for cmd in ("info", "circuits", "hyperplanes", "flats", "dual")
    ]
    + [
        ("graphic", json.dumps({"format": "graph-v1", "v": 10**9, "edges": [[0, 1]]})),
        ("chromatic", "1000000000 1\n0 1\n"),
    ],
)
def test_huge_ground_sets_are_refused_up_front(capsys, tmp_path, command, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = invoke(capsys, command, str(path))
    assert code == 1 and out == "" and err.startswith("error:") and str(MAX_GROUND) in err
    assert time.perf_counter() - start < 5


@pytest.fixture()
def free30_file(tmp_path):
    """A 100-byte document whose one basis is the whole ground set: rank 30,
    so at least 2^30 flats."""
    path = tmp_path / "free30.json"
    path.write_text(json.dumps({"format": "matroid-v1", "n": 30, "bases": [list(range(30))]}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["info"], ["flats"], ["chow"], ["chow", "--degree", "1"], ["chow", "--degree", "28"]],
)
def test_flat_listings_of_high_rank_are_refused_up_front(capsys, free30_file, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, free30_file)
    assert code == 1 and out == "" and err.startswith("error:") and "2^30" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_high_rank_queries_without_flats_still_answer(capsys, free30_file):
    for degree in ("0", "29"):
        assert invoke(capsys, "chow", "--degree", degree, free30_file) == (0, "1\n", "")
    code, out, _ = invoke(capsys, "circuits", free30_file)
    assert code == 0 and json.loads(out) == {"circuits": []}
    code, out, _ = invoke(capsys, "hyperplanes", free30_file)
    want = [[x for x in range(30) if x != e] for e in range(29, -1, -1)]
    assert code == 0 and json.loads(out) == {"hyperplanes": want}


def test_flat_limit_is_inclusive(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_FLATS_RANK", 4)
    path = tmp_path / "free.json"
    for r, code in ((4, 0), (5, 1)):
        path.write_text(json.dumps({"format": "matroid-v1", "n": r, "bases": [list(range(r))]}))
        for argv in (["info"], ["flats"], ["chow", "--degree", "1"]):
            assert invoke(capsys, *argv, str(path))[0] == code


def _free_file(tmp_path, r: int) -> str:
    """A one-basis document of rank r: every subset is a flat."""
    path = tmp_path / f"free{r}.json"
    path.write_text(json.dumps({"format": "matroid-v1", "n": r, "bases": [list(range(r))]}))
    return str(path)


def test_flat_rank_limit_in_a_fresh_process(tmp_path):
    """At MAX_FLATS_RANK `info` lists all 2^r flats within the 10 s budget;
    one rank more is refused at once."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    r = cli.MAX_FLATS_RANK
    for rank, code in ((r, 0), (r + 1, 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "matroidkit.cli", "info", _free_file(tmp_path, rank)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["fvector"] == [math.comb(r, k) for k in range(r + 1)]
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error:") and f"2^{r + 1}" in proc.stderr


@pytest.mark.parametrize(
    "matroid, fvector, listed",
    [
        # M(K8): 262,144 spanning trees, f-vector the Stirling row S(8, 8 - k);
        # its circuits are the 8,018 cycles of K8, its hyperplanes the 2^7 - 1
        # splits of the vertices in two
        (
            lambda: graphic_matroid(complete_graph(8)),
            [1, 28, 266, 1050, 1701, 966, 127, 1],
            {"circuits": 8018, "hyperplanes": 127},
        ),
        # U(8, 16): 12,870 bases, every set of fewer than 8 elements a flat
        (
            lambda: uniform_matroid(8, 16),
            [math.comb(16, k) for k in range(8)] + [1],
            {"circuits": math.comb(16, 9), "hyperplanes": math.comb(16, 7)},
        ),
    ],
    ids=["mk8", "u816"],
)
def test_info_past_the_rank_guard_within_budget(tmp_path, matroid, fvector, listed):
    """Both pass the rank guard, and `info`, `circuits` and `hyperplanes`
    answer in a fresh process within the 10 s budget. `validate` would check
    every ordered basis pair, and is refused."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dump_matroid(matroid())))
    proc = _fresh_cli("info", str(path))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["fvector"] == fvector
    for command, count in listed.items():
        proc = _fresh_cli(command, str(path))
        assert proc.returncode == 0 and proc.stderr == ""
        assert len(json.loads(proc.stdout)[command]) == count
    proc = _fresh_cli("validate", str(path))
    assert proc.returncode == 1 and proc.stdout == "" and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_validate_refuses_too_many_basis_pairs(capsys, tmp_path):
    """M(K6) has 1,296 bases and 1,678,320 ordered pairs, over the limit:
    refused before the check starts."""
    path = tmp_path / "mk6.json"
    path.write_text(json.dumps(dump_matroid(graphic_matroid(complete_graph(6)))))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 1 and out == "" and err.startswith("error:") and "1296" in err
    assert time.perf_counter() - start < 2


def test_validate_pair_limit_is_inclusive(capsys, m_file, monkeypatch):
    count = len(load_matroid(m_file).basis_masks)
    monkeypatch.setattr(cli, "MAX_ENUMERATED", count * (count - 1))
    assert invoke(capsys, "validate", m_file) == (0, "true\n", "")
    monkeypatch.setattr(cli, "MAX_ENUMERATED", count * (count - 1) - 1)
    code, out, err = invoke(capsys, "validate", m_file)
    assert code == 1 and out == "" and err.startswith("error:")


def test_validate_under_the_pair_limit_within_budget(tmp_path):
    """U(3, 18): 816 bases, 665,040 ordered pairs, checked in a fresh process."""
    path = tmp_path / "u318.json"
    path.write_text(json.dumps(dump_matroid(uniform_matroid(3, 18))))
    proc = _fresh_cli("validate", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")


def test_chow_hilbert_refuses_too_many_flat_pairs(capsys, tmp_path):
    """The chain count compares flats pairwise too: rank 11 is refused like
    the presentation, and rank 10 answers."""
    code, out, err = invoke(capsys, "chow", "--degree", "1", _free_file(tmp_path, 11))
    assert code == 1 and out == "" and err.startswith("error:") and "2046" in err
    assert invoke(capsys, "chow", "--degree", "1", _free_file(tmp_path, 10)) == (0, "1013\n", "")


def test_chow_on_the_rank_zero_matroid(capsys, tmp_path):
    """The empty presentation, whose ring is the integers in degree 0."""
    path = _free_file(tmp_path, 0)
    assert invoke(capsys, "chow", "--degree", "0", path) == (0, "1\n", "")
    code, out, err = invoke(capsys, "chow", path)
    assert (code, err) == (0, "") and json.loads(out)["variables"] == []


def test_info_on_invalid_families_exits_cleanly(capsys, tmp_path):
    """`run` lets anything but ValueError and OSError escape, so each call
    either answers or exits 1 with an `error:` line, never a traceback."""
    path = tmp_path / "invalid.json"
    for m in invalid_families(89, 300):
        path.write_text(_matroid_doc(m.n, [list(b.indices()) for b in m.bases]))
        code, out, err = invoke(capsys, "info", str(path))
        assert (code, err) == (0, "") and json.loads(out)["n"] == m.n or code == 1 and err.startswith("error:")


def test_chow_presentation_refuses_too_many_flat_pairs(capsys, tmp_path):
    """The quadrics compare every pair of the 2^r - 2 proper nonempty flats:
    rank 11 has 2,046 of them and over 10^6 pairs, rank 10 has 1,022."""
    start = time.perf_counter()
    code, out, err = invoke(capsys, "chow", _free_file(tmp_path, 11))
    assert code == 1 and out == "" and err.startswith("error:") and "2046" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5
    code, out, _ = invoke(capsys, "chow", _free_file(tmp_path, 10))
    assert code == 0 and len(json.loads(out)["variables"]) == 1022


def test_chow_presentation_limit_is_inclusive(capsys, tmp_path, monkeypatch):
    path = _free_file(tmp_path, 4)  # 14 proper flats, 91 pairs
    for limit, code in ((91, 0), (90, 1)):
        monkeypatch.setattr(cli, "MAX_ENUMERATED", limit)
        assert invoke(capsys, "chow", path)[0] == code


def test_has_minor_refuses_oversized_searches_up_front(capsys, tmp_path):
    """Rank 12 on 24 elements against U(1,1): C(24, 11) contract sets, each
    with C(13, 12) delete sets, over 10^6 pairs."""
    host = tmp_path / "host.json"
    host.write_text(_matroid_doc(24, [list(range(12))]))
    point = tmp_path / "point.json"
    point.write_text(_matroid_doc(1, [[0]]))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "has-minor", str(host), str(point))
    assert code == 1 and out == "" and err.startswith("error:") and "C(24, 11)" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 1


def test_has_minor_answers_at_the_search_limit(capsys, tmp_path, monkeypatch):
    """M(K6) against U(2,4) is C(15, 3) * C(12, 8) = 225,225 pairs, and M(K6)
    is binary, so it has no U(2,4) minor. The limit is inclusive."""
    k6 = {"format": "graph-v1", "v": 6, "edges": [[u, w] for u in range(6) for w in range(u + 1, 6)]}
    k6_path = tmp_path / "k6.json"
    k6_path.write_text(json.dumps(k6))
    m6_path, u24_path = tmp_path / "m6.json", tmp_path / "u24.json"
    m6_path.write_text(invoke(capsys, "graphic", str(k6_path))[1])
    u24_path.write_text(invoke(capsys, "uniform", "--rank", "2", "--n", "4")[1])
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 225_225)
    assert invoke(capsys, "has-minor", str(m6_path), str(u24_path)) == (0, "false\n", "")
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 225_224)
    assert invoke(capsys, "has-minor", str(m6_path), str(u24_path))[0] == 1


def test_ground_set_limit_is_inclusive(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"format": "matroid-v1", "n": MAX_GROUND, "bases": [[0]]}))
    assert load_matroid(str(path)).n == MAX_GROUND
    path.write_text(json.dumps({"format": "graph-v1", "v": MAX_GROUND, "edges": [[0, 1]]}))
    assert load_graph(str(path)).v == MAX_GROUND


def _matroid_doc(n: int, bases: list[list[int]]) -> str:
    return json.dumps({"format": "matroid-v1", "n": n, "bases": bases})


def test_constructors_refuse_ground_sets_the_loaders_refuse(capsys, tmp_path):
    """`uniform`, `linear` and `direct-sum` would otherwise print a matroid
    that `info` refuses to read back."""
    start = time.perf_counter()
    for n in (MAX_GROUND + 1, 5000, 10**6):
        code, out, err = invoke(capsys, "uniform", "--rank", "1", "--n", str(n))
        assert code == 1 and out == "" and err.startswith("error:") and str(MAX_GROUND) in err
    wide = tmp_path / "wide.json"
    doc = {"format": "matrix-v1", "rows": 1, "cols": 5000, "entries": [["1"] * 5000]}
    wide.write_text(json.dumps(doc))
    for field in ("q", "p:2"):
        code, out, err = invoke(capsys, "linear", "--field", field, str(wide))
        assert code == 1 and out == "" and err.startswith("error:") and str(MAX_GROUND) in err
    half = tmp_path / "half.json"
    half.write_text(_matroid_doc(MAX_GROUND // 2 + 1, [[0]]))
    code, out, err = invoke(capsys, "direct-sum", str(half), str(half))
    assert code == 1 and out == "" and err.startswith("error:") and str(MAX_GROUND) in err
    assert time.perf_counter() - start < 5


def test_direct_sum_refuses_too_many_bases(capsys, tmp_path):
    """U(1, 1001) + U(1, 1000) has 1,001,000 bases, over the 10^6 limit,
    from two documents of a few kilobytes."""
    paths = []
    for n in (1001, 1000):
        paths.append(tmp_path / f"u1_{n}.json")
        paths[-1].write_text(_matroid_doc(n, [[e] for e in range(n)]))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "direct-sum", *map(str, paths))
    assert code == 1 and out == "" and err.startswith("error:") and str(cli.MAX_ENUMERATED) in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_constructor_limits_are_inclusive(capsys, tmp_path, monkeypatch):
    code, out, _ = invoke(capsys, "uniform", "--rank", "0", "--n", str(MAX_GROUND))
    assert code == 0 and json.loads(out)["n"] == MAX_GROUND
    half = tmp_path / "half.json"
    half.write_text(_matroid_doc(MAX_GROUND // 2, [[0]]))
    code, out, _ = invoke(capsys, "direct-sum", str(half), str(half))
    assert code == 0 and json.loads(out)["n"] == MAX_GROUND
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 16)
    u14, u15 = tmp_path / "u14.json", tmp_path / "u15.json"
    u14.write_text(_matroid_doc(4, [[e] for e in range(4)]))
    u15.write_text(_matroid_doc(5, [[e] for e in range(5)]))
    code, out, _ = invoke(capsys, "direct-sum", str(u14), str(u14))
    assert code == 0 and len(json.loads(out)["bases"]) == 16
    assert invoke(capsys, "direct-sum", str(u14), str(u15))[0] == 1


def test_uniform_and_named(capsys):
    code, out, _ = invoke(capsys, "uniform", "--rank", "2", "--n", "4")
    assert len(json.loads(out)["bases"]) == 6
    code, out, _ = invoke(capsys, "named", "vamos")
    assert len(json.loads(out)["bases"]) == 65
    code, _, err = invoke(capsys, "named", "nope")
    assert code == 1 and "unknown" in err


def test_linear_command(capsys, tmp_path):
    doc = {
        "format": "matrix-v1",
        "rows": 2,
        "cols": 4,
        "entries": [["0", "4", "-1", "6"], ["0", "2/3", "7", "1"]],
    }
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "linear", "--field", "q", str(path))
    assert code == 0 and json.loads(out)["bases"] == [[1, 2], [2, 3]]
    # same matrix over GF(7): 2/3 is not a valid entry there
    code, _, err = invoke(capsys, "linear", "--field", "p:7", str(path))
    assert code == 1


def test_linear_command_refuses_non_prime_field(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"format": "matrix-v1", "rows": 1, "cols": 2, "entries": [[1, 2]]}))
    code, out, err = invoke(capsys, "linear", "--field", "p:4", str(path))
    assert code == 1 and out == "" and err.startswith("error:")
    assert "not a prime" in err and "Traceback" not in err


def _fresh_cli(*argv: str) -> subprocess.CompletedProcess:
    """One `python -m matroidkit.cli` process under the 10 s budget."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-m", "matroidkit.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )


def _matrix_file(tmp_path, entries: list[list[int]]) -> str:
    path = tmp_path / f"matrix{len(entries)}.json"
    doc = {"format": "matrix-v1", "rows": len(entries), "cols": len(entries[0]), "entries": entries}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("rows", [40, 100])
def test_wide_rational_matrices_are_refused_within_budget(tmp_path, rows):
    """The rank guard streams the rows and stops once every rank still
    reachable gives over 10^6 candidate bases, so it never eliminates a whole
    integer matrix of MAX_GROUND columns over the rationals first."""
    rng = Random(rows)
    path = _matrix_file(tmp_path, [[rng.randint(-9, 9) for _ in range(MAX_GROUND)] for _ in range(rows)])
    proc = _fresh_cli("linear", "--field", "q", path)
    assert proc.returncode == 1 and proc.stdout == "" and proc.stderr.startswith("error:")
    assert f"C({MAX_GROUND}, " in proc.stderr and "Traceback" not in proc.stderr


def test_rank_deficient_gf7_matrix_within_budget(tmp_path):
    """A seeded 120 x 120 GF(7) matrix whose last row is row 0 + row 1: the
    guard admits its C(120, 119) = 120 candidates, and the bases, each all
    but one column, are grown on the columns of its 119 echelon rows."""
    rng = Random(120)
    entries = [[rng.randrange(7) for _ in range(120)] for _ in range(119)]
    entries.append([(a + b) % 7 for a, b in zip(entries[0], entries[1])])
    proc = _fresh_cli("linear", "--field", "p:7", _matrix_file(tmp_path, entries))
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["n"] == 120 and doc["bases"] and all(len(b) == 119 for b in doc["bases"])


def test_exponent_matrix_entry_is_refused_at_once(tmp_path):
    """Fraction("1e19999999") alone would take about half a minute."""
    path = _matrix_file(tmp_path, [["1", "1e19999999"]])
    message = "error: bad matrix entry: strings must be decimal integers or 'a/b' rationals\n"
    for field in ("q", "p:2"):
        proc = _fresh_cli("linear", "--field", field, path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


def test_linear_rank_guard_reads_the_final_rank(capsys, tmp_path):
    """A 40 x 40 matrix of rank 10 is refused on its final rank, C(40, 10),
    and one of rank 2 is built, its 780 candidates under the limit."""
    rng = Random(5)
    for r, code in ((10, 1), (2, 0)):
        top = [[rng.randint(-5, 5) for _ in range(40)] for _ in range(r)]
        mix = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(40 - r)]
        low = [[sum(c[k] * top[k][j] for k in range(r)) for j in range(40)] for c in mix]
        code_got, out, err = invoke(capsys, "linear", "--field", "q", _matrix_file(tmp_path, top + low))
        assert code_got == code
        if code:
            assert out == "" and err.startswith("error:") and "C(40, 10)" in err
        else:
            doc = json.loads(out)
            assert doc["n"] == 40 and len(doc["bases"][0]) == 2


def test_uniform_with_a_negative_size_keeps_the_constructor_message(capsys):
    for rank, n in (("-1", "5"), ("0", "-5")):
        code, out, err = invoke(capsys, "uniform", "--rank", rank, "--n", n)
        assert (code, out) == (1, "")
        assert err == f"error: uniform matroid needs 0 <= rank <= n, got ({rank}, {n})\n"


def test_components_of_many_parts_within_budget(tmp_path):
    """Bases {e} plus every odd element, e even, on MAX_GROUND elements: the
    evens form one parallel class and each odd element is a coloop."""
    n = MAX_GROUND
    odds = list(range(1, n, 2))
    path = tmp_path / "parts.json"
    path.write_text(_matroid_doc(n, [[e] + odds for e in range(0, n, 2)]))
    proc = _fresh_cli("components", str(path))
    assert proc.returncode == 0 and proc.stderr == ""
    parts = json.loads(proc.stdout)["components"]
    assert len(parts) == n // 2 + 1
    assert parts[0] == {"format": "matroid-v1", "n": n // 2, "bases": [[e] for e in range(n // 2)]}
    assert all(p == {"format": "matroid-v1", "n": 1, "bases": [[0]]} for p in parts[1:])


def test_tutte_eval_of_a_wide_uniform_matroid_within_budget(tmp_path):
    """U(2, 400), 79,800 bases: T(2, 2) counts every subset of the 400 elements."""
    path = tmp_path / "u2_400.json"
    path.write_text(json.dumps(dump_matroid(uniform_matroid(2, 400))))
    proc = _fresh_cli("tutte-eval", "--x", "2", "--y", "2", str(path))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"{2**400}\n"


def test_isomorphic_steiner_triple_systems_within_budget(tmp_path):
    """Two relabelings of the cyclic STS(13) matroid: uniform pair counts
    leave the search to its per-basis check."""
    perm = list(range(13))
    Random(31).shuffle(perm)
    paths = []
    for name, p in (("a", None), ("b", perm)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump_matroid(sparse_paving(13, cyclic_sts13(), p))))
    proc = _fresh_cli("isomorphic", *map(str, paths))
    assert proc.returncode == 0 and proc.stderr == ""
    verdict, witness = proc.stdout.splitlines()
    source, target = (load_matroid(str(p)) for p in paths)
    iso = json.loads(witness)["isomorphism"]
    mapped = {sum(1 << iso[e] for e in b.indices()) for b in source.bases}
    assert verdict == "true" and mapped == set(target.basis_masks)


def test_isomorphic_pasch_traded_pg32_within_budget(tmp_path):
    """The Steiner triple system of PG(3, 2) against its Pasch-traded copy:
    equal pair counts everywhere, and no isomorphism to find."""
    lines = projective_lines(4)
    paths = []
    for name, triples in (("a", lines), ("b", pasch_trade(lines))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump_matroid(sparse_paving(15, triples))))
    proc = _fresh_cli("isomorphic", *map(str, paths))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "false\n", "")


def test_direct_sum_and_components(capsys, tmp_path):
    _, u_out, _ = invoke(capsys, "uniform", "--rank", "2", "--n", "4")
    u_path = tmp_path / "u.json"
    u_path.write_text(u_out)
    code, out, _ = invoke(capsys, "direct-sum", str(u_path), str(u_path))
    s_path = tmp_path / "s.json"
    s_path.write_text(out)
    assert json.loads(out)["n"] == 8
    code, out, _ = invoke(capsys, "components", str(s_path))
    assert len(json.loads(out)["components"]) == 2


def test_exit_codes(capsys, tmp_path):
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2
    code, _, err = invoke(capsys, "info", str(tmp_path / "missing.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"wrong-v1\"}")
    code, _, err = invoke(capsys, "info", str(bad))
    assert code == 1 and "matroid-v1" in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("info", {"format": "matroid-v1", "n": 3, "bases": [["a"]]}),
        ("info", {"format": "matroid-v1", "n": 3, "bases": [[0, 1.0]]}),
        ("info", {"format": "matroid-v1", "n": 3, "bases": [0]}),
        ("info", {"format": "matroid-v1", "n": True, "bases": [[0]]}),
        ("graphic", {"format": "graph-v1", "v": 3, "edges": ["01", "12"]}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 1, "entries": [5]}),
        ("info", {"format": "matroid-v1", "n": 3, "bases": [[0, True]]}),
        ("info", {"format": "matroid-v1", "n": 2, "labels": ["a", 1], "bases": [[0]]}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 1}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 1, "entries": [[1.5]]}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 1, "entries": [[True]]}),
        ("info", {"format": "matroid-v1", "n": 3, "bases": [[0, 0]]}),
        ("info", {"format": "matroid-v1", "n": 3, "bases": [[0, 1], [0, 1, 1]]}),
        # Fraction() would read the first three, and int() the third
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 2, "entries": [["1", "1.5"]]}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 2, "entries": [["1e3", "1"]]}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 2, "entries": [["1_000", "1"]]}),
        ("linear", {"format": "matrix-v1", "rows": 1, "cols": 2, "entries": [["1", "2/0"]]}),
        ("graphic", {"format": "graph-v1", "v": "3", "edges": [[0, 1]]}),
    ],
)
def test_malformed_documents_exit_1(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for extra in [["--field", "q"], ["--field", "p:2"]] if command == "linear" else [[]]:
        code, out, err = invoke(capsys, command, *extra, str(path))
        assert code == 1 and out == "" and err.startswith("error:")


GRAPH_TEXT = "graph text format is 'v m' then m lines 'u w'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\n0 1 2\n", GRAPH_TEXT),
        ("3 1\n0 1\n1 2\n0 2\n", GRAPH_TEXT),
        ("3 -1\n", GRAPH_TEXT),
        ("3 2\n0 1\n", GRAPH_TEXT),
        ("3 1\n0\n", GRAPH_TEXT),
        ("\n  \n", "empty graph file"),
    ],
    ids=["three-values", "extra-lines", "negative-m", "missing-lines", "one-value", "empty"],
)
def test_malformed_graph_texts_exit_1(capsys, tmp_path, text, message):
    """Every edge line holds exactly two integers, and there are exactly m."""
    path = tmp_path / "g.txt"
    path.write_text(text)
    for command in ("graphic", "cycles"):
        assert invoke(capsys, command, str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["linear", "--field", "p:x", "A"], "bad field spec 'p:x'"),
        (["linear", "--field", "r", "A"], "field must be 'q' (rationals) or 'p:<prime>'"),
        (["delete", "--set", "1,a", "M"], "bad index list '1,a'; use comma-separated integers"),
    ],
    ids=["field-p-x", "field-r", "set-1-a"],
)
def test_bad_option_values_exit_1(capsys, tmp_path, m_file, argv, message):
    matrix = tmp_path / "a.json"
    matrix.write_text(json.dumps({"format": "matrix-v1", "rows": 1, "cols": 1, "entries": [[1]]}))
    argv = [{"A": str(matrix), "M": m_file}.get(a, a) for a in argv]
    assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "weights",
    [
        '["x", 0, 0]',
        "[null, 0, 0]",
        "[true, 0, 0]",
        "[NaN, 0, 0]",
        "[1,",
        pytest.param("[" * 50_000 + "]" * 50_000, id="nested"),
    ],
)
def test_greedy_rejects_non_numeric_weights(capsys, tmp_path, weights):
    _, out, _ = invoke(capsys, "uniform", "--rank", "2", "--n", "3")
    path = tmp_path / "u23.json"
    path.write_text(out)
    code, out, err = invoke(capsys, "greedy", "--weights", weights, str(path))
    assert code == 1 and out == "" and err.startswith("error:")


# Modules that neither `import matroidkit.cli` nor a light query may load.
LAZY_LAYERS = ("construct", "graphs", "linalg", "transform", "optimize", "search", "tutte", "algebra")
HEAVY = [f"matroidkit.{m}" for m in LAZY_LAYERS] + ["fractions", "dataclasses", "inspect", "numpy"]


def heavy_but(*layers):
    return [m for m in HEAVY if m.split(".")[-1] not in layers]


# Imports matroidkit.cli, or runs it as `python -m matroidkit.cli ARGS` when
# given arguments, and prints the loaded module names to stderr on exit.
COLD_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
if len(sys.argv) > 1:
    runpy.run_module("matroidkit.cli", run_name="__main__", alter_sys=True)
else:
    import matroidkit.cli
"""


# In argv, "M" stands for a U(2,4) matroid file and "G" for a triangle graph
# file. A stdout of None means: what the same command prints in process.
@pytest.mark.parametrize(
    "argv, stdout, loaded, absent",
    [
        ([], "", [], HEAVY),
        (
            ["info", "M"],
            '{"n": 4, "rank": 2, "bases": 6, "loops": [], "coloops": [], "fvector": [1, 4, 1]}\n',
            ["matroidkit.core"],
            HEAVY,
        ),
        (["tutte-eval", "--x", "1", "--y", "1", "M"], "6\n", ["matroidkit.tutte"], ["matroidkit.graphs"]),
        (
            ["uniform", "--rank", "1", "--n", "2"],
            '{"format": "matroid-v1", "n": 2, "bases": [[0], [1]]}\n',
            ["matroidkit.construct"],
            heavy_but("construct"),
        ),
        (["named", "fano"], None, ["matroidkit.construct"], heavy_but("construct")),
        (["direct-sum", "M", "M"], None, ["matroidkit.construct"], heavy_but("construct")),
        (["graphic", "G"], None, ["matroidkit.graphs"], heavy_but("construct", "graphs")),
        (["isomorphic", "M", "M"], None, ["matroidkit.search"], heavy_but("search")),
    ],
    ids=["import", "info", "tutte-eval", "uniform", "named", "direct-sum", "graphic", "isomorphic"],
)
def test_cold_start_loads_only_what_the_command_runs(
    capsys, tmp_path, argv, stdout, loaded, absent
):
    u24 = tmp_path / "u24.json"
    bases = [[i, j] for i in range(4) for j in range(i + 1, 4)]
    u24.write_text(json.dumps({"format": "matroid-v1", "n": 4, "bases": bases}))
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("3 3\n0 1\n1 2\n0 2\n")
    argv = [{"M": str(u24), "G": str(triangle)}.get(a, a) for a in argv]
    if stdout is None:
        assert run(argv) == 0
        stdout = capsys.readouterr().out
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stdout == stdout
    modules = set(json.loads(proc.stderr))
    assert set(loaded) <= modules
    assert not modules & set(absent), sorted(modules & set(absent))


FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("matroidkit.cli", run_name="__main__", alter_sys=True)
"""


def test_main_freezes_the_heap_and_run_leaves_it(capsys, m_file):
    """`main` freezes every object made before the command runs, so the
    collection at interpreter exit skips them; `run`, which tests and library
    callers use in process, leaves the garbage collector as it was."""
    before = gc.get_freeze_count()
    assert run(["info", m_file]) == 0
    assert gc.get_freeze_count() == before
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, "info", m_file],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out
    assert int(proc.stderr) > 0


# A valid argument list for every command, after the command name.
VALID_ARGS = {
    "validate": ["m.json"],
    "info": ["m.json"],
    "bases": ["m.json"],
    "circuits": ["m.json"],
    "flats": ["m.json"],
    "hyperplanes": ["m.json"],
    "dual": ["-"],
    "tutte": ["m.json"],
    "polytope": ["m.json"],
    "components": ["m.json"],
    "delete": ["--set", "0,1", "m.json"],
    "contract": ["--set", "", "m.json"],
    "minor": ["--delete", "2", "m.json"],
    "isomorphic": ["a.json", "b.json"],
    "has-minor": ["a.json", "b.json"],
    "tutte-eval": ["--x", "2", "--y", "-1", "m.json"],
    "chromatic": ["g.txt"],
    "cycles": ["g.txt"],
    "greedy": ["--weights", "[1, 2]", "m.json"],
    "chow": ["--degree", "1", "m.json"],
    "uniform": ["--rank", "2", "--n", "5"],
    "graphic": ["g.txt"],
    "linear": ["--field", "q", "a.json"],
    "named": ["fano"],
    "direct-sum": ["a.json", "b.json"],
}
BAD_INTS = [
    ["tutte-eval", "--x", "a", "--y", "1", "m.json"],
    ["chow", "--degree", "1.5", "m.json"],
    ["uniform", "--rank", "two", "--n", "5"],
]


def parse(parser, argv):
    """Exit code (None when parsing succeeds), parsed values, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            values, code = None, exc.code
    return code, values, out.getvalue(), err.getvalue()


def test_one_command_parser_answers_as_the_full_parser():
    """`run` builds only the sub-parser its first argument names; on every
    command, with help, a missing or bad argument and a stray one, it parses,
    prints and exits as the parser of all commands does."""
    assert list(VALID_ARGS) == list(cli.COMMANDS)
    cases = list(BAD_INTS)
    for name, rest in VALID_ARGS.items():
        cases += [
            [name, *rest],
            [name, "--pretty", *rest],
            [name, "-h"],
            [name],
            [name, *rest, "stray"],
            [name, "--bogus", *rest],
        ]
    codes = set()
    for argv in cases:
        got = parse(cli.build_parser(argv[0]), argv)
        assert got == parse(cli.build_parser(), argv), argv
        codes.add(got[0])
    assert codes == {None, 0, 2}
    # the one-command parser knows no other command
    assert parse(cli.build_parser("info"), ["bases", "m.json"])[0] == 2


def test_run_builds_one_sub_parser_unless_the_command_is_unknown(capsys, m_file, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or build(*a))
    assert invoke(capsys, "info", m_file)[0] == 0
    code, out, err = invoke(capsys, "nonsense")
    assert built == [("info",), ("nonsense",)]
    assert code == 2 and out == "" and "invalid choice" in err and "nonsense" in err
    listed = err.split("choose from", 1)[1]
    assert all(name in listed for name in cli.COMMANDS)
    code, out, err = invoke(capsys, "--help")
    assert code == 0 and all(name in out for name in cli.COMMANDS)


def test_deterministic_output(capsys, m_file):
    _, first, _ = invoke(capsys, "info", m_file)
    _, second, _ = invoke(capsys, "info", m_file)
    assert first == second


def test_pretty_smoke(capsys, m_file, k5_file, tmp_path):
    code, out, _ = invoke(capsys, "info", "--pretty", m_file)
    assert code == 0 and "rank: 2" in out
    code, out, _ = invoke(capsys, "bases", "--pretty", m_file)
    assert "{a, b}" in out
    code, out, _ = invoke(capsys, "dual", "--pretty", m_file)
    assert "rank=2" in out
    u23 = tmp_path / "u23.json"  # loopless and unlabeled
    u23.write_text(json.dumps({"format": "matroid-v1", "n": 3, "bases": [[0, 1], [0, 2], [1, 2]]}))
    for argv, line in [
        (["flats", m_file], "rank 1: {a, d}, {b, c, d}"),
        (["tutte", m_file], "x^2*y + x*y^2"),
        (["chromatic", k5_file], "k(k - 1)(k - 2)(k - 3)(k - 4)"),
        (["cycles", k5_file], "count: 37"),
        (["polytope", m_file], "dimension: 1"),
        (["chow", str(u23)], "quadric generators: 3"),
        (["components", m_file], "  n=2 rank=1 bases=2"),
        (["circuits", str(u23)], "  {0, 1, 2}"),
        (["dual", str(u23)], "bases: {0}, {1}, {2}"),
    ]:
        code, out, _ = invoke(capsys, argv[0], "--pretty", *argv[1:])
        assert code == 0 and line in out.splitlines()


# -- fuzzing the loaders ------------------------------------------------------------

# Junk-heavy documents (wrong types, ragged bases, negative and huge sizes) run
# next to well-formed matroids and graphs, so both exit paths are exercised.
SCALARS = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([MAX_GROUND + 1, 10**9, -(10**9), 2**70]),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
)
INDICES = st.one_of(st.lists(st.one_of(st.integers(-1, 8), SCALARS), max_size=4), SCALARS)
MATROID_DOCS = st.fixed_dictionaries(
    {
        "format": st.just("matroid-v1"),
        "n": st.one_of(st.integers(0, 8), SCALARS),
        "bases": st.one_of(st.lists(INDICES, max_size=5), SCALARS),
    },
    optional={"labels": st.one_of(st.lists(st.text(max_size=2), max_size=8), SCALARS)},
)
MATROIDS = st.integers(0, 6).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda r: st.fixed_dictionaries(
            {
                "format": st.just("matroid-v1"),
                "n": st.just(n),
                "bases": st.lists(
                    st.permutations(range(n)).map(lambda p: p[:r]), min_size=1, max_size=5
                ),
            }
        )
    )
)
GRAPHS = st.integers(2, 6).flatmap(
    lambda v: st.fixed_dictionaries(
        {
            "format": st.just("graph-v1"),
            "v": st.just(v),
            "edges": st.lists(st.permutations(range(v)).map(lambda p: p[:2]), max_size=7),
        }
    )
)
GRAPH_DOCS = st.fixed_dictionaries(
    {
        "format": st.just("graph-v1"),
        "v": st.one_of(st.integers(0, 6), SCALARS),
        "edges": st.one_of(st.lists(INDICES, max_size=6), SCALARS),
    }
)
# json.loads raises RecursionError on these, which no JSONDecodeError handler catches
DEEP_MATROID = '{"format": "matroid-v1", "n": 2, "bases": ' + "[" * 100_000 + "]" * 100_000 + "}"
DEEP_GRAPH = '{"format": "graph-v1", "v": 2, "edges": ' + "[" * 50_000 + "]" * 50_000 + "}"
NESTED = st.sampled_from([DEEP_MATROID, DEEP_GRAPH])
GRAPH_TEXTS = st.lists(
    st.lists(st.one_of(st.integers(-1, 6), SCALARS).map(str), max_size=3), max_size=6
).map(lambda rows: "\n".join(" ".join(row) for row in rows))


def run_on_stdin(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@given(
    command=st.sampled_from(
        ["info", "bases", "graphic", "tutte", "circuits", "components", "validate"]
    ),
    doc=st.one_of(
        MATROIDS, MATROID_DOCS, GRAPHS, GRAPH_DOCS, GRAPH_TEXTS, NESTED, st.text(max_size=12)
    ),
)
@example(command="info", doc=DEEP_MATROID)
@example(command="graphic", doc=DEEP_GRAPH)
@settings(max_examples=120, deadline=None)
def test_fuzzed_documents_exit_cleanly(command, doc):
    """Every document ends in exit 0, 1 or 2 without an exception escaping
    `run`; exit 1 prints only an `error:` line, and an accepted matroid
    document comes back with the same bases from `bases`."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    code, out, err = run_on_stdin([command, "-"], text)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    if code == 0 and command == "bases":
        bases = json.loads(out)["bases"]
        assert {frozenset(b) for b in doc["bases"]} == {frozenset(b) for b in bases}
        again = json.dumps({"format": "matroid-v1", "n": doc["n"], "bases": bases})
        assert run_on_stdin(["bases", "-"], again) == (0, out, "")
    if code == 0 and command == "graphic":
        assert run_on_stdin(["bases", "-"], out)[0] == 0
