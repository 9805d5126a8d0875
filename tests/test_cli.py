import argparse
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_text
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import twobell
from twobell import cli, commands, experiments
from twobell.channels import packaged_calibration_path
from twobell.cli import main
from twobell.commands import packaged_fidelities_path
from twobell.config import CONFIG_KEYS, SCHEMES, ExperimentConfig

PAPER_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "paper_noisy_seed0.json"
)
GOLDEN = Path(__file__).resolve().parent / "golden"

# Document name -> the command line that prints it.  Each document was
# written with ``python -m twobell <argv> --out tests/golden/<name>.json``.
GOLDEN_RUNS = {
    # The paper's own m, with x != 0 and complex alpha, beta.
    "run_two_bell_m1": ["run", "--config", GOLDEN / "two_bell_m1.config.json",
                        "--seed", "90211"],
    "run_two_bell_m2": ["run", "--config", GOLDEN / "two_bell_m2.config.json",
                        "--shots", "1024", "--seed", "3"],
    # Its output amplitudes hold signed zeros (-0.0) that depend on the
    # order in which the compression's gates run.
    "run_two_bell_m3": ["run", "--config", GOLDEN / "two_bell_m3.config.json",
                        "--seed", "241937442"],
    # m = 4, the largest run of the benchmark's mix: 16 branches of 512 amplitudes.
    "run_two_bell_m4": ["run", "--config", GOLDEN / "two_bell_m4.config.json",
                        "--seed", "1531772976"],
    "run_cluster5": ["run", "--config", GOLDEN / "cluster5.config.json"],
    "run_general_two_qubit": ["run", "--config", GOLDEN / "general_two_qubit.config.json"],
    "compare": ["compare", "--config", GOLDEN / "compare.config.json"],
    "tomography_sampled": ["tomography", "--shots", "1024", "--seed", "5"],
    "tomography_exact": ["tomography", "--exact"],
    "route_default": ["route", GOLDEN / "route_default.circuit.txt"],
    "route_ring": ["route", GOLDEN / "route_ring.circuit.txt",
                   "--graph", GOLDEN / "ring6.graph.txt"],
    # The noisy path, written by the engine that ran the routed circuit
    # and the tomography tails on all 7 qubits: running only the legs that
    # hold a receiver must not move them.
    "run_noisy_seed7": ["run", "--calibration", "builtin", "--reps", "10", "--seed", "7"],
    "tomography_noisy_seed3": ["tomography", "--calibration", "builtin", "--seed", "3"],
}


def run_cli(args, tmp_path, name="doc.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def load(out):
    return json.loads(out.read_text())


def test_run_ideal_two_bell(tmp_path):
    code, out = run_cli(
        ["run", "--scheme", "two_bell", "--shots", "4096", "--seed", "1"], tmp_path
    )
    assert code == 0
    doc = load(out)
    assert doc["schema_version"] == 1
    assert doc["resources"] == {
        "bell_pairs": 2,
        "channel_qubits": 4,
        "unknown_coefficients": 4,
    }
    assert len(doc["branches"]) == 16
    assert all(b["fidelity_vs_ideal"] == pytest.approx(1.0) for b in doc["branches"])
    hist = doc["ideal"]["histogram"]
    assert sum(hist.values()) == 4096
    assert set(hist) <= {"00", "01", "10", "11"}


def test_run_byte_identical_for_same_seed(tmp_path):
    args = ["run", "--scheme", "two_bell", "--shots", "1024", "--seed", "7"]
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_run_noisy_with_builtin_calibration(tmp_path):
    code, out = run_cli(
        [
            "run",
            "--scheme",
            "two_bell",
            "--calibration",
            "builtin",
            "--shots",
            "1024",
            "--seed",
            "3",
            "--reps",
            "3",
        ],
        tmp_path,
    )
    assert code == 0
    doc = load(out)
    noisy = doc["noisy"]
    assert sum(noisy["histogram"].values()) == 1024
    fids = noisy["repetition_fidelities_percent"]
    assert len(fids) == 3
    assert all(100 * 2 / 3 < f < 98.0 for f in fids)
    assert noisy["stats"]["sample_std"] >= 0
    assert noisy["classical_limit_percent"] == pytest.approx(66.666667)


def test_run_worker_count_does_not_change_output(tmp_path):
    base = [
        "run", "--scheme", "two_bell", "--calibration", "builtin",
        "--shots", "512", "--seed", "5", "--reps", "4",
    ]
    _, a = run_cli(base + ["--workers", "1"], tmp_path, "w1.json")
    _, b = run_cli(base + ["--workers", "4"], tmp_path, "w4.json")
    assert a.read_bytes() == b.read_bytes()


def test_paper_run_matches_reference_document(capsys):
    assert main(["run", "--calibration", "builtin", "--reps", "10", "--seed", "0"]) == 0
    assert capsys.readouterr().out == PAPER_REFERENCE.read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_exact_run_matches_golden_document(name, capsys):
    assert main([str(arg) for arg in GOLDEN_RUNS[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("argv", [["run"], ["run", "--calibration", "builtin", "--reps", "0"]])
def test_run_compresses_each_input_once(argv, monkeypatch, capsys):
    """One compression per input serves the |+> check, the teleportation and the histogram."""
    calls = []
    real = twobell.protocols.compress_ghz_class

    def counted(chi):
        calls.append(chi.n)
        return real(chi)

    monkeypatch.setattr(commands, "compress_ghz_class", counted)
    monkeypatch.setattr(experiments, "compress_ghz_class", counted)
    monkeypatch.setattr(twobell.protocols, "compress_ghz_class", counted)
    assert main(argv) == 0
    assert calls == [1, 2]


def counted_calls(patch_bindings, *reals):
    """Names of the calls to ``reals``, made through any module's binding."""
    calls = []

    def counting(real):
        def wrapped(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapped

    for real in reals:
        patch_bindings(real, counting(real))
    return calls


def test_run_builds_no_density_matrix(tmp_path, patch_bindings):
    """Branch fidelities against a pure ideal are overlaps |<ideal|out>|^2."""
    calls = counted_calls(patch_bindings, twobell.qstate.to_density)
    code, out = run_cli(["run", "--scheme", "two_bell"], tmp_path)
    assert code == 0
    assert len(load(out)["branches"]) == 16
    assert calls == []


@pytest.mark.parametrize("argv, density_matrices", [
    (["run", "--calibration", "builtin", "--reps", "2"], 0),
    (["tomography", "--calibration", "builtin"], 0),
    (["tomography", "--shots", "1024"], 0),
    # Exact tomography reads its expectations from the ideal's density matrix.
    (["tomography", "--exact"], 1),
], ids=["run_noisy", "tomography_noisy", "tomography_sampled", "tomography_exact"])
def test_fidelity_against_the_pure_ideal_is_its_overlap(tmp_path, patch_bindings, argv,
                                                       density_matrices):
    """Every fidelity against the pure ideal |+>|+> is <ideal|rho|ideal>:
    no Uhlmann fidelity, and no density matrix built for the ideal."""
    calls = counted_calls(patch_bindings, twobell.qstate.to_density, twobell.tomography.fidelity)
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    assert calls == ["to_density"] * density_matrices


def test_noisy_run_makes_one_noisy_pass(tmp_path, monkeypatch):
    calls = []
    real = experiments.noisy_distribution

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "noisy_distribution", counting)
    code, _ = run_cli(["run", "--calibration", "builtin", "--reps", "10"], tmp_path)
    assert code == 0
    # One routed run per leg plus the nine tomography tails.
    assert len(calls) == 11


def test_run_csv_export(tmp_path):
    csv_path = tmp_path / "hist.csv"
    code, out = run_cli(
        ["run", "--scheme", "two_bell", "--shots", "256", "--seed", "2",
         "--csv", str(csv_path)],
        tmp_path,
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "outcome,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 256
    # The bytes csv.writer writes, CRLF line ends included.
    hist = load(out)["ideal"]["histogram"]
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([["outcome", "count"], *([k, hist[k]] for k in sorted(hist))])
    assert csv_path.read_bytes() == expected.getvalue().encode()


def test_run_csv_export_without_a_histogram_ends_in_error(tmp_path, capsys):
    csv_path = tmp_path / "hist.csv"
    assert main(["run", "--scheme", "cluster5", "--csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: document has no histogram to export\n"
    assert captured.out == ""
    assert not csv_path.exists()


def test_run_csv_is_not_exported_when_the_document_write_fails(tmp_path, capsys):
    csv_path = tmp_path / "hist.csv"
    out = tmp_path / "missing" / "doc.json"
    assert main(["run", "--csv", str(csv_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not csv_path.exists()


def test_run_general_two_qubit_scheme(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scheme": "general_two_qubit",
        "coefficients": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]],
    }))
    code, out = run_cli(["run", "--config", str(cfg), "--seed", "0"], tmp_path)
    assert code == 0
    doc = load(out)
    assert len(doc["branches"]) == 16
    assert all(b["fidelity_vs_ideal"] == pytest.approx(1.0) for b in doc["branches"])


def test_tomography_exact(tmp_path):
    code, out = run_cli(["tomography", "--exact", "--seed", "0"], tmp_path)
    assert code == 0
    doc = load(out)
    assert doc["mode"] == "exact"
    assert doc["fidelity_percent"] == pytest.approx(100.0, abs=1e-7)
    assert doc["density_matrix"]["real"][0][0] == pytest.approx(0.25, abs=1e-9)


def test_tomography_ideal_sampled(tmp_path):
    code, out = run_cli(["tomography", "--shots", "8192", "--seed", "11"], tmp_path)
    assert code == 0
    doc = load(out)
    assert doc["mode"] == "ideal_sampled"
    assert doc["fidelity_percent"] > 99.0


def test_tomography_noisy(tmp_path):
    code, out = run_cli(
        ["tomography", "--calibration", "builtin", "--shots", "2048", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    doc = load(out)
    assert doc["mode"] == "noisy"
    assert doc["classical_limit_percent"] < doc["fidelity_percent"] < 100.0


def test_stats_packaged_values(tmp_path):
    code, out = run_cli(["stats"], tmp_path)
    assert code == 0
    doc = load(out)
    assert doc["mean"] == pytest.approx(79.636, abs=0.001)
    assert doc["sample_std"] == pytest.approx(3.096, abs=0.001)
    assert len(doc["values"]) == 10


def test_stats_single_value_errors(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("50.0\n")
    assert main(["stats", str(p)]) == 1
    assert "2 values" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["50.0\n", "", "# a comment\n\n"], ids=["one", "none", "comment"])
def test_stats_of_fewer_than_two_values_ends_in_error(tmp_path, capsys, text):
    """``fidelity_stats`` is the one place that asks for two values."""
    p = tmp_path / "values.txt"
    p.write_text(text)
    assert main(["stats", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need >= 2 values\n"
    assert captured.out == ""


@pytest.mark.parametrize("values", ["1e308\n1e308\n", "1e200\n-1e200\n"], ids=["mean", "spread"])
def test_stats_whose_mean_or_spread_overflows_end_in_error(tmp_path, capsys, values):
    p = tmp_path / "values.txt"
    p.write_text(values)
    assert main(["stats", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: values too large: their mean or spread overflows\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "80.1.2"])
def test_stats_rejects_values_that_are_not_finite_numbers(tmp_path, capsys, text):
    p = tmp_path / "values.txt"
    p.write_text(f"80.0  # first\n\n{text}\n78.0\n")
    assert main(["stats", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 3: expected a finite number, got '{text}'\n"
    assert captured.out == ""


def test_route_command(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 3\nH 0\nCNOT 0 1\nCNOT 1 2\nM 2 -> c0\n")
    code, out = run_cli(["route", str(circ)], tmp_path)
    assert code == 0
    doc = load(out)
    assert doc["cost"]["swap_count"] == 0
    assert doc["cost"]["cnot_count"] == 2
    assert "CNOT" in doc["routed_circuit"]


def test_route_custom_graph(tmp_path):
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n")
    code, out = run_cli(["route", str(circ), "--graph", str(graph)], tmp_path)
    assert code == 0
    assert load(out)["cost"]["cnot_count"] == 1


def test_route_graph_with_non_integer_node_names_its_line(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 x\n")
    assert main(["route", str(circ), "--graph", str(graph)]) == 1
    assert capsys.readouterr().err == "error: line 2: expected integer, got 'x'\n"


@pytest.mark.parametrize("edge", ["0 0", "0 -1"], ids=["self_loop", "negative_node"])
def test_graph_edge_without_two_distinct_nodes_names_its_line(tmp_path, capsys, edge):
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text(f"0 1\n{edge}\n")
    assert main(["route", str(circ), "--graph", str(graph)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 2: expected two distinct nodes >= 0, got '{edge}'\n"
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["circuit", "graph", "stats", "calibration"])
def test_text_file_that_is_not_utf8_names_its_line(tmp_path, capsys, fmt):
    circ, bad = tmp_path / "circ.txt", tmp_path / "bad"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    first_line = {"circuit": b"qubits 2\n", "graph": b"0 1\n", "stats": b"80.5\n",
                  "calibration": packaged_calibration_path().read_bytes().splitlines(True)[0]}
    bad.write_bytes(first_line[fmt] + b"1 \xff\n")
    argv = {"circuit": ["route", str(bad)], "graph": ["route", str(circ), "--graph", str(bad)],
            "stats": ["stats", str(bad)], "calibration": ["run", "--calibration", str(bad)]}
    assert main(argv[fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: not UTF-8 text\n"
    assert captured.out == ""


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_text_files_with_crlf_or_cr_line_ends_read_as_with_lf(tmp_path, capsys, end):
    """Line numbers, and what each line holds, do not depend on the line end."""
    texts = {"circ": "qubits 3\nCNOT 0 1\n# comment\nSWAP 1 2\n", "graph": "0 1\n1 2\n",
             "values": "80.5\n# comment\n81.25\n79\n", "bad": "0 1\n\n1 x\n"}
    runs = [["route", "circ", "--graph", "graph"], ["stats", "values"],
            ["route", "circ", "--graph", "bad"]]
    outputs = {}
    for sep in ("\n", end):
        for name, text in texts.items():
            (tmp_path / name).write_bytes(text.replace("\n", sep).encode())
        outputs[sep] = [(main([str(tmp_path / a) if a in texts else a for a in argv]),
                         *capsys.readouterr()) for argv in runs]
    assert outputs[end] == outputs["\n"]
    assert [code for code, _, _ in outputs[end]] == [0, 0, 1]
    assert outputs[end][2][2] == "error: line 3: expected integer, got 'x'\n"


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_circuit_lines_end_only_at_line_ends(tmp_path, capsys, sep):
    """A separator that ``str.splitlines`` breaks at, but a file's lines do
    not, is whitespace inside its line, so errors name the file's line."""
    circ = tmp_path / "circ.txt"
    circ.write_text(f"H{sep}0\nFOO 0\n", encoding="utf-8")
    assert main(["route", str(circ)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: unknown gate 'FOO'\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["run", "--calibration"], ["tomography", "--calibration"],
                                  ["run", "--config"]])
def test_missing_calibration_file_names_the_noise_field(tmp_path, capsys, argv):
    missing = tmp_path / "missing.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": str(missing)}))
    assert main(argv + [str(cfg if argv[1] == "--config" else missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: noise: [Errno 2] No such file or directory: '{missing}'\n"
    assert captured.out == ""


def test_graph_with_a_far_node_ends_in_error_before_allocating_it(tmp_path, capsys):
    """A connected graph on N nodes has at least N - 1 edges, so two edges
    cannot reach node 10**20; the graph is rejected without building it."""
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text(f"0 1\n1 {10 ** 20}\n")
    assert main(["route", str(circ), "--graph", str(graph)]) == 1
    assert capsys.readouterr().err == "error: coupling graph must be connected\n"


@pytest.mark.parametrize(
    "circuit, graph, message",
    [
        ("# only a comment\n", None, "line 1: empty circuit and no qubits header"),
        ("qubits 2\nM 0 -> c0\nX 0 if\n", None, "line 3: usage: <gate> <targets> if <bit>"),
        ("qubits 2\nCNOT 0 1\n", "# only a comment\n", "empty graph file"),
        # Five nodes and four edges pass the edge-count check; the search then finds node 3 apart.
        ("qubits 2\nCNOT 0 1\n", "0 1\n1 2\n0 2\n3 4\n", "coupling graph must be connected"),
    ],
    ids=["empty_circuit", "if_without_bit", "empty_graph", "disconnected_graph"],
)
def test_route_input_without_a_circuit_or_graph_ends_in_error(tmp_path, capsys, circuit, graph,
                                                              message):
    circ, graph_path = tmp_path / "circ.txt", tmp_path / "g.txt"
    circ.write_text(circuit)
    argv = ["route", str(circ)]
    if graph is not None:
        graph_path.write_text(graph)
        argv += ["--graph", str(graph_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_route_duplicate_target_names_its_line(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 3\nH 0\nCNOT 1 1\n")
    assert main(["route", str(circ)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: duplicate target qubits: [1, 1]\n"
    assert "routing bug" not in err


def test_python_m_twobell_matches_cli_main(tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 3\nH 0\nCNOT 0 2\nCNOT 1 2\nM 2 -> c0\nX 1 if c0\n")
    assert main(["route", str(circ)]) == 0
    expected = capsys.readouterr().out
    src = str(Path(twobell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "twobell", "route", str(circ)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert proc.stderr == ""


def _twobell(args, stdout, buffered=False):
    """``python -m twobell args`` from this checkout, started with its stderr
    piped; ``buffered`` drops ``PYTHONUNBUFFERED``, so that stdout holds a
    short document until it is flushed."""
    src = str(Path(twobell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "twobell", *map(str, args)], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


def test_run_into_a_pipe_closed_after_one_line_exits_1_quietly(tmp_path):
    """``twobell run | head -1`` at m = 4, whose 423 kB document overfills the
    pipe: exit 1 with nothing on stderr (not ``error: [Errno 32] Broken
    pipe``), and no CSV, since the document was not written."""
    csv_path = tmp_path / "h.csv"
    with _twobell(["run", "--config", GOLDEN / "two_bell_m4.config.json", "--csv", csv_path],
                  subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1
    assert not csv_path.exists()


def test_stats_into_a_closed_pipe_exits_1_quietly():
    """A buffered 220-byte document meets the closed pipe when it is flushed:
    still exit 1 with nothing on stderr, not Python's "Exception ignored"
    note and exit code 120 as the process ends."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start, so the child's first write fails
    with _twobell(["stats"], write_end, buffered=True) as proc:
        os.close(write_end)
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1


def test_compare_command(tmp_path):
    code, out = run_cli(["compare", "--seed", "0"], tmp_path)
    assert code == 0
    doc = load(out)
    assert doc["equivalent"] is True
    assert doc["resources"]["cluster5"]["channel_qubits"] == 5
    assert doc["resources"]["two_bell"]["channel_qubits"] == 4


# A valid input with an amplitude near 1e-8, which once failed the
# unitarity check of the state preparation.
NEAR_DEGENERATE = {
    "input_a": {"x": 1, "alpha": [0.6, 0.0], "beta": [0.0, 0.8]},
    "input_b": {"x": 0, "alpha": [0, 0.9999999999999998], "beta": [0, 2e-8]},
}


@pytest.mark.parametrize("argv", [["run", "--scheme", "two_bell"], ["run", "--scheme", "cluster5"],
                                  ["compare"]], ids=["two_bell", "cluster5", "compare"])
def test_near_degenerate_input_runs(tmp_path, argv):
    config = tmp_path / "near_degenerate.json"
    config.write_text(json.dumps(NEAR_DEGENERATE))
    code, out = run_cli([*argv, "--config", str(config)], tmp_path)
    assert code == 0
    doc = load(out)
    if argv[0] == "compare":
        assert doc["equivalent"] is True
        assert doc["min_branch_fidelity"] == pytest.approx(1.0, abs=1e-9)
    else:
        assert len(doc["branches"]) == 16
        for b in doc["branches"]:
            assert b["fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "argv", [["compare"], ["tomography", "--exact"]], ids=["compare", "tomography_exact"]
)
def test_compare_rejects_calibration(capsys, argv):
    # Both are noiseless; a calibration used to be accepted and ignored.
    assert main(argv + ["--calibration", "builtin"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "calibration" in err


@pytest.mark.parametrize("column", [1, 2], ids=["t1_us", "t2_us"])
def test_nan_coherence_time_in_calibration_rejected(tmp_path, capsys, column):
    rows = packaged_calibration_path().read_text().splitlines()
    fields = rows[1].split(",")
    fields[column] = "nan"
    rows[1] = ",".join(fields)
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    assert main(["run", "--calibration", str(csv_path), "--reps", "2"]) == 1
    captured = capsys.readouterr()
    name = rows[0].split(",")[column]
    assert captured.err == f"error: line 2, {name}: expected a positive number, got nan\n"
    assert captured.out == ""


def test_negative_t1_rejected_before_t2_is_clamped(tmp_path, capsys):
    rows = packaged_calibration_path().read_text().splitlines()
    fields = rows[1].split(",")
    fields[1] = "-5"
    rows[1] = ",".join(fields)
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--calibration", str(csv_path), "--reps", "2"]) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == "error: line 2, t1_us: expected a positive number, got -5.0\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "tomography"])
@pytest.mark.parametrize("column, cell", [(2, lambda t1: repr(2 * float(t1))), (1, lambda t1: "inf")],
                         ids=["t2_clamped", "t1_infinite"])
def test_no_decay_rate_over_infinite_idle_time_runs(tmp_path, capsys, command, column, cell):
    """T2 = 2*T1 (the loader's clamp) gives no dephasing, and an infinite T1
    no damping; two readouts of 1e308 ns owe a qubit an infinite idle time.
    Rate 0 over time inf used to make every branch NaN."""
    rows = packaged_calibration_path().read_text().splitlines()
    for i in range(1, len(rows)):
        fields = rows[i].split(",")
        fields[column] = cell(fields[1])
        rows[i] = ",".join(fields)
    (tmp_path / "cal.csv").write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": str(tmp_path / "cal.csv"), "durations": {"readout_ns": 1e308}}))
    assert main([command, "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    if command == "run":
        # Fully damped to |00>, or fully dephased: either way 1/4 against |++>.
        assert doc["noisy"]["fidelity_percent_deterministic"] == 25.0
    else:
        assert 0 <= doc["fidelity_percent"] <= 100


def test_calibration_of_a_qubit_no_receiver_leg_holds_is_not_needed(tmp_path, capsys):
    """Qubit 6 is a leg of its own that holds no receiver, so it never runs:
    a calibration without its row and its cx5_6 token prints the same bytes."""
    rows = packaged_calibration_path().read_text().splitlines()
    assert rows[-1].startswith("6,") and rows[-2].endswith(";cx5_6:1.156e-2")
    rows = rows[:-2] + [rows[-2].removesuffix(";cx5_6:1.156e-2")]
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    docs = []
    for calibration in (str(csv_path), "builtin"):
        assert main(["run", "--calibration", calibration, "--reps", "2"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]


def test_calibration_row_that_repeats_a_qubit_rejected(tmp_path, capsys):
    """A second row for qubit 1 must not override the first one silently."""
    text = packaged_calibration_path().read_text() + "1,20,10,4.76,1.56e-2,1.56e-4,cx1_0:1.105e-2\n"
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text(text)
    assert main(["run", "--calibration", str(csv_path), "--reps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 9: qubit 1 repeats line 3\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "column, cell, message",
    [
        (0, "x", "qubit: invalid literal for int() with base 10: 'x'"),
        (4, "abc", "readout_err: could not convert string to float: 'abc'"),
        (5, "1.5", "x_err: probability 1.5 out of [0, 1]"),
        (6, "cx2_1:2", "cnot_errs: probability 2.0 out of [0, 1]"),
        (6, "cx0_1:0.1", "cnot_errs: CNOT token 'cx0_1:0.1' does not involve qubit 2"),
        (6, "xx0_1:0.01", "cnot_errs: unparsable CNOT token 'xx0_1:0.01'"),
        (6, "cx2_1:0.01;cx2_9:0.01", "cnot_errs: CNOT token 'cx2_9:0.01' names qubit 9, which has no row"),
    ],
    ids=["qubit", "readout_err", "x_err", "cnot_errs_probability", "cnot_errs_other_qubit",
         "cnot_errs_unparsable", "cnot_errs_qubit_without_row"],
)
def test_bad_calibration_cell_names_its_line_and_column(tmp_path, capsys, column, cell, message):
    rows = packaged_calibration_path().read_text().splitlines()
    fields = rows[3].split(",")  # qubit 2, on line 4
    fields[column] = cell
    rows[3] = ",".join(fields)
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    assert main(["run", "--calibration", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 4, {message}\n"
    assert captured.out == ""


def test_bad_calibration_path_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--calibration", "/nonexistent.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def _config_cases(cases):
    """pytest params from (id, data, message) rows.  The ids name the rule
    each case breaks, so they stay fixed when the message text changes."""
    return [pytest.param(data, message, id=case_id) for case_id, data, message in cases]


@pytest.mark.parametrize("data, message", _config_cases([
    ("data0-shotz", {"shotz": 5}, "{cfg}: unknown key(s) shotz; expected scheme, m, input_a, "
                                  "input_b, coefficients, shots, seed, noise, durations, reps, workers"),
    ("data1-cnot", {"durations": {"cnot": 5}, "noise": "builtin"},
     "durations: unknown key(s) cnot; expected single_qubit_gate_ns, cnot_ns, readout_ns"),
    ("data2-input_a key(s): y", {"input_a": {"y": 3}},
     "input_a: unknown key(s) y; expected x, alpha, beta"),
]))
def test_unknown_config_key_rejected(tmp_path, capsys, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(cfg=cfg)}\n"
    assert captured.out == ""


def test_config_keys_are_the_config_parameters():
    """A config may hold exactly the keys that ``ExperimentConfig`` takes, listed in its order."""
    assert CONFIG_KEYS == tuple(inspect.signature(ExperimentConfig).parameters)


@pytest.mark.parametrize("data, message", _config_cases([
    ("data0-shots must be an integer", {"shots": "5"},
     "shots: expected an integer in [1, 9223372036854775807], got '5'"),
    ("data1-m must be an integer", {"m": 1.5}, "m: expected an integer in [1, 8], got 1.5"),
    ("data2-reps must be an integer", {"reps": True}, "reps: expected an integer in [0, inf], got True"),
    ("data3-4 amplitudes", {"scheme": "general_two_qubit", "coefficients": [[1, 0]]},
     "coefficients: expected a list of 4 amplitudes, got [[1, 0]]"),
    ("data4-[re, im]", {"input_b": {"alpha": None}},
     "input_b.alpha: expected a finite number or [re, im], got None"),
    ("data5-x must be an integer", {"input_a": {"x": "1"}},
     "input_a.x: expected an integer in [0, 1], got '1'"),
    ("data6-noise must be a calibration path", {"noise": 5},
     "noise: expected a calibration path or 'builtin', got 5"),
    ("data7-durations.cnot_ns must be a finite", {"durations": {"cnot_ns": "5"}, "noise": "builtin"},
     "durations.cnot_ns: expected a positive number, got '5'"),
    ("data8-durations.readout_ns must be a finite", {"durations": {"readout_ns": float("nan")}},
     "durations.readout_ns: expected a positive number, got nan"),
    ("data9-reps must be >= 0", {"reps": -1}, "reps: expected an integer in [0, inf], got -1"),
    ("data10-m must be <= 8", {"m": 9}, "m: expected an integer in [1, 8], got 9"),
    ("data11-shots must be <= 2**63 - 1", {"shots": 2 ** 63},
     "shots: expected an integer in [1, 9223372036854775807], got 9223372036854775808"),
    ("data12-seed must be >= 0", {"seed": -1}, "seed: expected an integer in [0, inf], got -1"),
    ("data13-expected a finite number", {"input_a": {"alpha": math.nan, "beta": 0}},
     "input_a.alpha: expected a finite number or [re, im], got nan"),
    ("data14-expected a finite number", {"input_b": {"alpha": [0, -math.inf], "beta": 0}},
     "input_b.alpha: expected a finite number or [re, im], got [0, -inf]"),
    ("data15-not normalized (norm inf)", {"input_a": {"alpha": [1e308, 1e308], "beta": [0, 0]}},
     "input_a: amplitudes are not normalized (norm inf)"),
    # Fields that the command does not read are checked too.
    ("durations must be positive", {"durations": {"cnot_ns": -1}},
     "durations.cnot_ns: expected a positive number, got -1"),
    ("durations must be positive with a calibration", {"durations": {"cnot_ns": -1}, "noise": "builtin"},
     "durations.cnot_ns: expected a positive number, got -1"),
    ("coefficients checked under two_bell", {"coefficients": [0, [1, 0], math.inf, 0]},
     "coefficients[2]: expected a finite number or [re, im], got inf"),
    ("x must fit n = m + 1 qubits", {"m": 2, "input_b": {"x": 8}},
     "input_b.x: expected an integer in [0, 7], got 8"),
]))
def test_wrong_typed_config_value_rejected(tmp_path, capsys, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_config_that_is_not_json_names_its_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{")
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {cfg}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )
    assert captured.out == ""


def test_deeply_nested_config_ends_in_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: JSON nested too deeply\n"
    assert captured.out == ""


def test_state_too_large_to_allocate_ends_in_error(tmp_path):
    """m = 20 asks for a 2**41-amplitude joint state (32 TiB): numpy's
    MemoryError ends in ``error:``.  The child's address-space limit makes
    the allocation fail even on a system that overcommits memory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 20}))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 16 * 2 ** 30 if hard == resource.RLIM_INFINITY else min(16 * 2 ** 30, hard)
    src = str(Path(twobell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "twobell", "run", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


@pytest.mark.parametrize("scheme", ["cluster5", "general_two_qubit"])
def test_noisy_run_rejects_other_schemes(capsys, scheme):
    assert main(["run", "--scheme", scheme, "--calibration", "builtin"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and scheme in err


def test_noisy_run_rejects_inputs_other_than_plus(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_b": {"x": 1, "alpha": [0.6, 0], "beta": [0.8, 0]}}))
    assert main(["run", "--config", str(cfg), "--calibration", "builtin"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "input_b" in err


@pytest.mark.parametrize(
    "argv",
    [["tomography"], ["tomography", "--exact"], ["tomography", "--calibration", "builtin"]],
    ids=["ideal_sampled", "exact", "noisy"],
)
def test_tomography_rejects_inputs_other_than_plus(tmp_path, capsys, argv):
    """Tomography reconstructs the routed |+>,|+> experiment, so it may not
    report that state's fidelity for other inputs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_a": {"alpha": [0.6, 0], "beta": [0.8, 0]}}))
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: input_a: does not compress to |+>, the only input tomography takes\n"
    assert captured.out == ""


def test_tomography_rejects_other_schemes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "cluster5"}))
    assert main(["tomography", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: scheme: tomography is defined for two_bell, not cluster5\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["compare"], ["run", "--scheme", "cluster5"]])
def test_cluster_baseline_rejects_m_other_than_1(tmp_path, capsys, argv):
    """compare builds its states with n = m and m + 1, as run does."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3}))
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: m: the cluster baseline is defined for m = 1\n"
    assert captured.out == ""


def test_unnormalized_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_a": {"x": 0, "alpha": [1, 0], "beta": [1, 0]}}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "normalized" in capsys.readouterr().err


def test_nearly_normalized_config_is_renormalized_with_one_warning(tmp_path):
    """A norm within 1e-6 of 1, but not within 1e-10, is renormalized, and says so."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_a": {"alpha": [0.70710679, 0], "beta": [0.70710679, 0]}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(["run", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert [w.category for w in caught] == [UserWarning]
    assert str(caught[0].message).startswith("input_a: renormalizing amplitudes")
    assert {b["fidelity_vs_ideal"] for b in load(out)["branches"]} == {1.0}


def test_packaged_data_files_exist():
    assert packaged_calibration_path().read_text().startswith("qubit,")
    lines = [
        l for l in packaged_fidelities_path().read_text().splitlines()
        if l.strip() and not l.startswith("#")
    ]
    assert len(lines) == 10


@pytest.mark.parametrize("command", ["run", "stats"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_path_ends_in_error(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
    assert main([command, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


# JSON values as the CLI's documents hold them, plus the floats that the
# writer's one-call array path must hand back to the generic path.
_floats = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])


def _lists_and_grids(elements):
    return st.lists(elements) | st.integers(0, 3).flatmap(
        lambda cols: st.lists(st.lists(elements, min_size=cols, max_size=cols), max_size=4)
    )


# Float lists and grids, pure and with one kind of intruder each.
_float_lists = st.one_of(
    [
        _lists_and_grids(elements)
        for elements in (
            _floats,
            _floats | st.booleans(),
            _floats | st.integers(),
            _floats | _floats.map(np.float64),
        )
    ]
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _floats.map(np.float64)
    | st.text() | _float_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(_json_values)
def test_dumps_equals_json_dumps(value):
    assert_same_text(cli._dumps(value), json.dumps(value, indent=2, sort_keys=True))


@st.composite
def _zero_heavy_grids(draw):
    """Grids (r, 2), as a run document's amplitudes, and (r, c), of up to 600
    rows, most of them all 0.0; the others, often in runs of equal rows, mix
    0.0, -0.0 and a few other values, and sometimes one NaN or infinity."""
    grid = np.zeros((draw(st.integers(0, 600)), draw(st.sampled_from([2, 2, 1, 3]))))
    if grid.size:
        cols = grid.shape[1]
        rows = st.lists(st.sampled_from([0.0, -0.0, -0.0, 1.0, -0.25, 5e-324]), min_size=cols, max_size=cols)
        for i, n in draw(st.lists(st.tuples(st.integers(0, len(grid) - 1), st.integers(1, 40)), max_size=30)):
            grid[i:i + n] = draw(rows)
        if draw(st.integers(0, 3)) == 0:
            grid.flat[draw(st.integers(0, grid.size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return grid


# float64 vectors (k,) and grids (r, c), k, r or c = 0 included, and zero-heavy grids.
_arrays = arrays(np.float64, st.tuples(st.integers(0, 6)) | st.tuples(st.integers(0, 4), st.integers(0, 3)),
                 elements=_floats) | _zero_heavy_grids()


def _nested_arrays(depth: int):
    """Arrays nested ``depth`` deep in lists and dicts."""
    if not depth:
        return _arrays
    inner = _nested_arrays(depth - 1)
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3)


@settings(max_examples=300)
@given(st.integers(0, 3).flatmap(_nested_arrays))
def test_dumps_of_arrays_equals_json_dumps(value):
    assert_same_text(cli._dumps(value), json.dumps(value, default=np.ndarray.tolist, indent=2, sort_keys=True))


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_dumps_rejects_keys_that_are_not_str(key):
    with pytest.raises(TypeError):
        cli._dumps({"a": {key: 1.0}})


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_run_document_equals_json_dumps(tmp_path, capsys, m):
    rng = np.random.default_rng(m)

    def bell_input(n):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.hypot(abs(a), abs(b))
        return {"x": int(rng.integers(2 ** n)),
                "alpha": [a.real / norm, a.imag / norm], "beta": [b.real / norm, b.imag / norm]}

    data = {"m": m, "input_a": bell_input(m), "input_b": bell_input(m + 1), "seed": 17}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg)]) == 0
    doc = {**commands.cmd_run(ExperimentConfig(**data)), "schema_version": 1, "command": "run"}
    assert_same_text(capsys.readouterr().out,
                     json.dumps(doc, default=np.ndarray.tolist, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", str(GOLDEN / "two_bell_m2.config.json")], ["tomography", "--exact"]],
    ids=["run_two_bell_m2", "tomography_exact"],
)
def test_document_is_not_written_by_the_python_json_encoder(monkeypatch, capsys, argv):
    """json.dumps with an indent runs the pure-Python encoder; the writer
    must not fall back to it."""

    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["schema_version"] == 1


def test_large_run_document_keeps_its_bytes_and_is_written_lean(tmp_path):
    """An m = 6 document, 16 branches of 2^13 amplitudes in 6.6 MB: its
    digest was taken when the writer still built float lists, and writing
    it must peak below 3x its length, so no copy of the text or list of
    every float is held beside it."""
    out = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(GOLDEN / "two_bell_m6.config.json"), "--seed", "1",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_bytes()
    assert hashlib.sha256(text).hexdigest() == (GOLDEN / "run_two_bell_m6_seed1.sha256").read_text().strip()
    assert peak < 3 * len(text)


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["tomography", "--exact"]) == 0
    assert main(["compare"]) == 0
    assert built.count("twobell") <= 1


_wrong = st.sampled_from([None, "x", 1.5, [], [1], -1, -2.5])
# Amplitudes that are not finite, or whose squares overflow a float.
_not_finite = st.sampled_from([math.nan, math.inf, [0.0, -math.inf], [1e308, 1e308], 1e308])
_bell_field = st.fixed_dictionaries(
    {},
    optional={
        "x": st.integers(0, 3) | _wrong,
        "alpha": st.sampled_from([[0.6, 0.0], 0.6]) | _wrong | _not_finite,
        "beta": st.sampled_from([[0.0, 0.8], 0.8]) | _wrong | _not_finite,
    },
)
# T2 = 2*T1 on every qubit (no dephasing); a duration near the float
# maximum overflows a qubit's idle time to inf.
_noise = st.sampled_from([None, "builtin", str(GOLDEN / "clamped.calibration.csv")])
_durations = st.dictionaries(
    st.sampled_from(["single_qubit_gate_ns", "cnot_ns", "readout_ns"]),
    st.floats(1.0, 2000.0) | st.floats(1.0, sys.float_info.max) | _wrong,
)
_configs = st.fixed_dictionaries(
    {},
    optional={
        "scheme": st.sampled_from(SCHEMES) | _wrong,
        "m": st.integers(1, 3) | _wrong,
        "input_a": _bell_field | _wrong,
        "input_b": _bell_field | _wrong,
        "coefficients": st.sampled_from([None, [[0.5, 0.0]] * 4, [1, 0, 0, 0], [math.nan] * 4,
                                         [[1e308, 1e308], 0, 0, 0]]) | _wrong,
        "shots": st.integers(1, 64) | _wrong,
        "seed": st.integers(0, 2 ** 32) | _wrong,
        "noise": _noise | _wrong,
        "durations": _durations | _wrong,
        "reps": st.integers(0, 2) | _wrong,
        "workers": st.integers(1, 4) | _wrong,
    },
)


def assert_runs_or_ends_in_error(argv, place: str):
    """``main(argv)`` in-process exits 0, or exits 1 with empty stdout and
    stderr ``error: <message>``, where ``place`` (a regex) matches the start
    of the message: the error names where the input is wrong.  A warning
    would print on stderr ahead of the error, so an exit 1 allows none,
    and no run may raise a RuntimeWarning or DeprecationWarning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    assert code in (0, 1)
    messages = [f"{w.category.__name__}: {w.message}" for w in caught]
    assert not any(issubclass(w.category, (RuntimeWarning, DeprecationWarning)) for w in caught), messages
    if code == 1:
        assert messages == []
        assert err.getvalue().startswith("error: ")
        assert re.match(place, err.getvalue()[len("error: "):]), err.getvalue()
        assert out.getvalue() == ""


_CONFIG_FIELDS = "|".join(CONFIG_KEYS)


def config_place(cfg) -> str:
    """A config error starts with a JSON path (``m``, ``input_a.alpha``,
    ``coefficients[2]``) or the config file; an OSError names its file."""
    return rf"(?:{_CONFIG_FIELDS})(?:\.\w+|\[\d+\])?: |{re.escape(str(cfg))}: |\[Errno \d+\] .*: '"


@settings(max_examples=200)
@given(_configs, st.sampled_from(["run", "tomography", "compare"]))
def test_any_config_runs_or_ends_in_error(tmp_path_factory, data, command):
    cfg = tmp_path_factory.mktemp("config") / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert_runs_or_ends_in_error([command, "--config", cfg], config_place(cfg))


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({"noise": _noise, "durations": _durations}),
       st.sampled_from(["run", "tomography"]))
def test_any_noise_config_runs_or_ends_in_error(tmp_path_factory, data, command):
    """The config property above with only the noise fields drawn, so that
    most examples reach the noise engine, at durations up to the float maximum."""
    cfg = tmp_path_factory.mktemp("config") / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert_runs_or_ends_in_error([command, "--config", cfg], config_place(cfg))


_amplitude = st.sampled_from([[0.6, 0.0], 0.6, [0.0, 0.8], 0.8]) | _not_finite | _wrong
_input = st.fixed_dictionaries({}, optional={"alpha": _amplitude, "beta": _amplitude})


@settings(max_examples=60)
@given(st.fixed_dictionaries(
    {"scheme": st.sampled_from(["two_bell", "general_two_qubit"])},
    optional={"input_a": _input, "input_b": _input,
              "coefficients": st.lists(_amplitude, min_size=4, max_size=4)},
))
def test_any_amplitudes_run_or_end_in_error(tmp_path_factory, data):
    """The config property above with only the amplitude fields drawn, so
    that most examples reach the amplitude checks."""
    cfg = tmp_path_factory.mktemp("config") / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert_runs_or_ends_in_error(["run", "--config", cfg], config_place(cfg))


# -- mutations of the text input formats --------------------------------------

_token = st.sampled_from(
    ["", "H", "X", "CNOT", "SWAP", "CUSTOM", "M", "->", "if", "qubits", "#", "0", "1", "3", "6",
     "7", "8", "-1", "99999999999999999999", "1.5", "1e308", "-1e308", "nan", "inf", "m0", "a"]
) | st.floats().map(repr) | st.text(max_size=3)


@st.composite
def mutated(draw, text):
    """``text`` after one to three edits, each on a token or a line:
    replace, delete or insert a token, or delete or repeat a line."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "delete", "insert", "drop_line", "repeat_line"]))
        if i == len(lines):
            lines.append([draw(_token)])
        elif edit == "drop_line":
            del lines[i]
        elif edit == "repeat_line":
            lines.insert(i, list(lines[i]))
        elif edit == "insert" or not lines[i]:
            lines[i].insert(draw(st.integers(0, len(lines[i]))), draw(_token))
        else:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if edit == "replace":
                lines[i][j] = draw(_token)
            else:
                del lines[i][j]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def _write(tmp_path_factory, name, text):
    path = tmp_path_factory.mktemp("input") / name
    path.write_text(text, encoding="utf-8")
    return path


@settings(max_examples=40, deadline=None)
@given(text=mutated((GOLDEN / "route_default.circuit.txt").read_text()))
def test_any_circuit_text_routes_or_ends_in_error(tmp_path_factory, text):
    assert_runs_or_ends_in_error(["route", _write(tmp_path_factory, "circ.txt", text)],
                                 r"line \d+: |\d+ logical qubits exceed \d+ physical")


@settings(max_examples=40, deadline=None)
@given(text=mutated((GOLDEN / "ring6.graph.txt").read_text()))
def test_any_graph_text_routes_or_ends_in_error(tmp_path_factory, text):
    graph = _write(tmp_path_factory, "graph.txt", text)
    assert_runs_or_ends_in_error(
        ["route", GOLDEN / "route_ring.circuit.txt", "--graph", graph],
        # The last three name the whole file: no line is at fault alone.
        r"line \d+: |empty graph file|coupling graph must be connected|\d+ logical qubits exceed",
    )


@settings(max_examples=100, deadline=None)
@given(text=mutated(packaged_fidelities_path().read_text()))
def test_any_stats_values_run_or_end_in_error(tmp_path_factory, text):
    assert_runs_or_ends_in_error(["stats", _write(tmp_path_factory, "values.txt", text)],
                                 r"line \d+: |need >= 2 values|values too large")


@st.composite
def calibration_with_one_cell_changed(draw):
    rows = [row.split(",") for row in packaged_calibration_path().read_text().splitlines()]
    row = draw(st.sampled_from(rows))
    row[draw(st.integers(0, len(row) - 1))] = draw(
        st.sampled_from(["cx0_1:0.5", "cx0_9:0.1", "cx1_1:0.1", "cx0_1:2", "cx0_1", ";", "5e-324"])
        | _token
    )
    return "\n".join(",".join(r) for r in rows) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=calibration_with_one_cell_changed())
def test_any_calibration_cell_runs_or_ends_in_error(tmp_path_factory, text):
    cal = _write(tmp_path_factory, "cal.csv", text)
    assert_runs_or_ends_in_error(["run", "--calibration", cal, "--reps", "1", "--shots", "64"],
                                 r"line \d+[:,] |no (?:CNOT )?calibration for qubit")
