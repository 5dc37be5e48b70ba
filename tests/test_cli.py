import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import cli
from matroidkit.cli import MAX_GROUND, dump_matroid, load_graph, load_matroid, run


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
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 16)
    path = tmp_path / "free.json"
    for r, code in ((4, 0), (5, 1)):
        path.write_text(json.dumps({"format": "matroid-v1", "n": r, "bases": [list(range(r))]}))
        for argv in (["info"], ["flats"], ["chow"], ["chow", "--degree", "1"]):
            assert invoke(capsys, *argv, str(path))[0] == code


def test_ground_set_limit_is_inclusive(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"format": "matroid-v1", "n": MAX_GROUND, "bases": [[0]]}))
    assert load_matroid(str(path)).n == MAX_GROUND
    path.write_text(json.dumps({"format": "graph-v1", "v": MAX_GROUND, "edges": [[0, 1]]}))
    assert load_graph(str(path)).v == MAX_GROUND


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
    ],
)
def test_malformed_documents_exit_1(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    extra = ["--field", "q"] if command == "linear" else []
    code, out, err = invoke(capsys, command, *extra, str(path))
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "weights", ['["x", 0, 0]', "[null, 0, 0]", "[true, 0, 0]", "[NaN, 0, 0]"]
)
def test_greedy_rejects_non_numeric_weights(capsys, tmp_path, weights):
    _, out, _ = invoke(capsys, "uniform", "--rank", "2", "--n", "3")
    path = tmp_path / "u23.json"
    path.write_text(out)
    code, out, err = invoke(capsys, "greedy", "--weights", weights, str(path))
    assert code == 1 and out == "" and err.startswith("error:")


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, matroidkit.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_deterministic_output(capsys, m_file):
    _, first, _ = invoke(capsys, "info", m_file)
    _, second, _ = invoke(capsys, "info", m_file)
    assert first == second


def test_pretty_smoke(capsys, m_file):
    code, out, _ = invoke(capsys, "info", "--pretty", m_file)
    assert code == 0 and "rank: 2" in out
    code, out, _ = invoke(capsys, "bases", "--pretty", m_file)
    assert "{a, b}" in out
    code, out, _ = invoke(capsys, "dual", "--pretty", m_file)
    assert "rank=2" in out


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
    doc=st.one_of(MATROIDS, MATROID_DOCS, GRAPHS, GRAPH_DOCS, GRAPH_TEXTS, st.text(max_size=12)),
)
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
