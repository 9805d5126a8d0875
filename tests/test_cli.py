import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twobell
from twobell import cli, experiments
from twobell.cli import main, packaged_calibration_path, packaged_fidelities_path

PAPER_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "paper_noisy_seed0.json"
)
GOLDEN = Path(__file__).resolve().parent / "golden"

# Document name -> the command line that prints it.  Each document was
# written with ``python -m twobell <argv> --out tests/golden/<name>.json``.
GOLDEN_RUNS = {
    "run_two_bell_m2": ["run", "--config", GOLDEN / "two_bell_m2.config.json",
                        "--shots", "1024", "--seed", "3"],
    # Its output amplitudes hold signed zeros (-0.0) that depend on the
    # order in which the compression's gates run.
    "run_two_bell_m3": ["run", "--config", GOLDEN / "two_bell_m3.config.json",
                        "--seed", "241937442"],
    "run_cluster5": ["run", "--config", GOLDEN / "cluster5.config.json"],
    "run_general_two_qubit": ["run", "--config", GOLDEN / "general_two_qubit.config.json"],
    "compare": ["compare", "--config", GOLDEN / "compare.config.json"],
    "tomography_sampled": ["tomography", "--shots", "1024", "--seed", "5"],
    "tomography_exact": ["tomography", "--exact"],
    "route_default": ["route", GOLDEN / "route_default.circuit.txt"],
    "route_ring": ["route", GOLDEN / "route_ring.circuit.txt",
                   "--graph", GOLDEN / "ring6.graph.txt"],
    # The noisy path, written by the engine that ran the routed circuit
    # and the tomography tails on all 7 qubits: the light cone must not
    # move them.
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


def test_run_builds_no_density_matrix(tmp_path, monkeypatch):
    """Branch fidelities against a pure ideal are overlaps |<ideal|out>|^2."""
    calls = []
    real = cli.to_density

    def counting(psi):
        calls.append(psi.num_qubits)
        return real(psi)

    monkeypatch.setattr(cli, "to_density", counting)
    code, out = run_cli(["run", "--scheme", "two_bell"], tmp_path)
    assert code == 0
    assert len(load(out)["branches"]) == 16
    assert calls == []


def test_noisy_run_makes_one_noisy_pass(tmp_path, monkeypatch):
    calls = []
    real = experiments.noisy_distribution

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "noisy_distribution", counting)
    code, _ = run_cli(["run", "--calibration", "builtin", "--reps", "10"], tmp_path)
    assert code == 0
    # One routed run plus the nine tomography tails.
    assert len(calls) == 10


def test_run_csv_export(tmp_path):
    csv_path = tmp_path / "hist.csv"
    code, _ = run_cli(
        ["run", "--scheme", "two_bell", "--shots", "256", "--seed", "2",
         "--csv", str(csv_path)],
        tmp_path,
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "outcome,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 256


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


def test_graph_with_a_far_node_ends_in_error_before_allocating_it(tmp_path, capsys):
    """A connected graph on N nodes has at least N - 1 edges, so two edges
    cannot reach node 10**20; the graph is rejected without building it."""
    circ = tmp_path / "circ.txt"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text(f"0 1\n1 {10 ** 20}\n")
    assert main(["route", str(circ), "--graph", str(graph)]) == 1
    assert capsys.readouterr().err == "error: coupling graph must be connected\n"


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


def test_compare_command(tmp_path):
    code, out = run_cli(["compare", "--seed", "0"], tmp_path)
    assert code == 0
    doc = load(out)
    assert doc["equivalent"] is True
    assert doc["resources"]["cluster5"]["channel_qubits"] == 5
    assert doc["resources"]["two_bell"]["channel_qubits"] == 4


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
    assert captured.err.startswith("error: qubit 0: T1 and T2 must be positive")
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
    assert capsys.readouterr().err.startswith("error: qubit 0: T1 and T2 must be positive, got -5.0,")


def test_bad_calibration_path_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--calibration", "/nonexistent.csv"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"shotz": 5}, "shotz"),
        ({"durations": {"cnot": 5}, "noise": "builtin"}, "cnot"),
        ({"input_a": {"y": 3}}, "input_a key(s): y"),
    ],
)
def test_unknown_config_key_rejected(tmp_path, capsys, data, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"shots": "5"}, "shots must be an integer"),
        ({"m": 1.5}, "m must be an integer"),
        ({"reps": True}, "reps must be an integer"),
        ({"scheme": "general_two_qubit", "coefficients": [[1, 0]]}, "4 amplitudes"),
        ({"input_b": {"alpha": None}}, "[re, im]"),
        ({"input_a": {"x": "1"}}, "x must be an integer"),
        ({"noise": 5}, "noise must be a calibration path"),
        ({"durations": {"cnot_ns": "5"}, "noise": "builtin"}, "durations.cnot_ns must be a finite"),
        ({"durations": {"readout_ns": float("nan")}}, "durations.readout_ns must be a finite"),
        ({"reps": -1}, "reps must be >= 0"),
        ({"m": 9}, "m must be <= 8"),
        ({"shots": 2 ** 63}, "shots must be <= 2**63 - 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"input_a": {"alpha": math.nan, "beta": 0}}, "expected a finite number"),
        ({"input_b": {"alpha": [0, -math.inf], "beta": 0}}, "expected a finite number"),
        ({"input_a": {"alpha": [1e308, 1e308], "beta": [0, 0]}}, "not normalized (norm inf)"),
    ],
)
def test_wrong_typed_config_value_rejected(tmp_path, capsys, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


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


def test_unnormalized_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_a": {"x": 0, "alpha": [1, 0], "beta": [1, 0]}}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "normalized" in capsys.readouterr().err


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


# JSON values as the CLI's documents hold them, plus the cases the
# writer's float-grid fast path must hand back to the generic path.
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
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_dumps_rejects_keys_that_are_not_str(key):
    with pytest.raises(TypeError):
        cli._dumps({"a": {key: 1.0}})


@pytest.mark.parametrize("m", [1, 2, 3, 4])
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
    doc = cli.cmd_run(cli.ExperimentConfig(**data))
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
_configs = st.fixed_dictionaries(
    {},
    optional={
        "scheme": st.sampled_from(cli.SCHEMES) | _wrong,
        "m": st.integers(1, 3) | _wrong,
        "input_a": _bell_field | _wrong,
        "input_b": _bell_field | _wrong,
        "coefficients": st.sampled_from([None, [[0.5, 0.0]] * 4, [1, 0, 0, 0], [math.nan] * 4,
                                         [[1e308, 1e308], 0, 0, 0]]) | _wrong,
        "shots": st.integers(1, 64) | _wrong,
        "seed": st.integers(0, 2 ** 32) | _wrong,
        "noise": st.sampled_from([None, "builtin"]) | _wrong,
        "durations": st.dictionaries(
            st.sampled_from(["single_qubit_gate_ns", "cnot_ns", "readout_ns"]),
            st.floats(1.0, 2000.0) | _wrong,
        ) | _wrong,
        "reps": st.integers(0, 2) | _wrong,
        "workers": st.integers(1, 4) | _wrong,
    },
)


def assert_runs_or_ends_in_error(argv):
    """``main(argv)`` in-process exits 0, or exits 1 with stderr that
    starts with ``error:`` and empty stdout.  A warning would print on
    stderr ahead of the error, so an exit 1 allows none, and no run may
    raise a RuntimeWarning or DeprecationWarning."""
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
        assert err.getvalue().startswith("error:")
        assert out.getvalue() == ""


@settings(max_examples=150)
@given(_configs)
def test_any_config_runs_or_ends_in_error(tmp_path_factory, data):
    cfg = tmp_path_factory.mktemp("config") / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert_runs_or_ends_in_error(["run", "--config", cfg])


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
    assert_runs_or_ends_in_error(["run", "--config", cfg])


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
    assert_runs_or_ends_in_error(["route", _write(tmp_path_factory, "circ.txt", text)])


@settings(max_examples=40, deadline=None)
@given(text=mutated((GOLDEN / "ring6.graph.txt").read_text()))
def test_any_graph_text_routes_or_ends_in_error(tmp_path_factory, text):
    graph = _write(tmp_path_factory, "graph.txt", text)
    assert_runs_or_ends_in_error(["route", GOLDEN / "route_ring.circuit.txt", "--graph", graph])


@settings(max_examples=100, deadline=None)
@given(text=mutated(packaged_fidelities_path().read_text()))
def test_any_stats_values_run_or_end_in_error(tmp_path_factory, text):
    assert_runs_or_ends_in_error(["stats", _write(tmp_path_factory, "values.txt", text)])


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
    assert_runs_or_ends_in_error(["run", "--calibration", cal, "--reps", "1", "--shots", "64"])
