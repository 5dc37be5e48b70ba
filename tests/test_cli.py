import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from matroidkit.cli import dump_matroid, load_graph, load_matroid, run


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
