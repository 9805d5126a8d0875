import numpy as np
import pytest

from twobell.circuit import (
    Circuit,
    CircuitParseError,
    Gate,
    from_text,
    run_exact,
    sample_counts,
    to_text,
)
from twobell import qstate
from twobell.protocols import experiment_circuit
from twobell.qstate import StateVector, partial_trace, to_density

SQ2 = 1 / np.sqrt(2)


def test_h_then_measure():
    c = Circuit(1).h(0).measure(0, "c0")
    dist = run_exact(c)
    assert dist.probabilities() == pytest.approx({"0": 0.5, "1": 0.5})


def test_bell_prep_single_branch():
    c = Circuit(2).h(0).cnot(0, 1)
    dist = run_exact(c)
    assert len(dist.entries) == 1
    assert np.allclose(dist.entries[0].state.amplitudes, [SQ2, 0, 0, SQ2])


def test_experiment_circuit_16_uniform_branches():
    c = experiment_circuit(measure_outputs=False)
    dist = run_exact(c)
    assert len(dist.entries) == 16
    target = to_density(StateVector(2, [0.5, 0.5, 0.5, 0.5]))
    for e in dist.entries:
        assert e.probability == pytest.approx(1 / 16, abs=1e-10)
        marginal = partial_trace(to_density(e.state), {2, 5})
        assert np.max(np.abs(marginal.entries - target.entries)) < 1e-10


def test_run_exact_trusts_the_built_circuit(monkeypatch):
    """Gates and qubit ranges are checked as the circuit is built, so
    running it re-checks no gate matrix and no target list."""
    c = experiment_circuit()
    calls = []

    def counted(real):
        return lambda *args: calls.append(real.__name__) or real(*args)

    monkeypatch.setattr(qstate, "_check_unitary", counted(qstate._check_unitary))
    monkeypatch.setattr(qstate, "_check_targets", counted(qstate._check_targets))
    assert len(run_exact(c).entries) == 64
    assert calls == []


def test_deterministic_circuit_counts():
    c = Circuit(1).x(0).measure(0, "c0")
    assert sample_counts(c, 8192, 1) == {"1": 8192}


def test_experiment_histogram_within_3_sigma():
    c = experiment_circuit()
    counts = sample_counts(c, 8192, 0)
    marg = {}
    for bits, k in counts.items():
        marg[bits[4:]] = marg.get(bits[4:], 0) + k
    sigma = np.sqrt(8192 * 0.25 * 0.75)
    for outcome in ("00", "01", "10", "11"):
        assert abs(marg.get(outcome, 0) - 2048) < 3 * sigma


def test_same_seed_same_counts():
    c = experiment_circuit()
    assert sample_counts(c, 4096, 123) == sample_counts(c, 4096, 123)


def test_zero_shots_rejected():
    c = Circuit(1).measure(0, "c0")
    with pytest.raises(ValueError):
        sample_counts(c, 0, 1)


def test_bell_measure_on_phi_plus():
    c = Circuit(2).h(0).cnot(0, 1).bell_measure(0, 1, "b1", "b2")
    dist = run_exact(c)
    assert dist.probabilities() == pytest.approx({"00": 1.0})


def test_bell_measure_on_psi_minus():
    psi = StateVector(2, [0, SQ2, -SQ2, 0])
    c = Circuit(2).bell_measure(0, 1, "b1", "b2")
    dist = run_exact(c, initial=psi)
    assert dist.probabilities() == pytest.approx({"11": 1.0})


def test_bell_measure_on_00():
    c = Circuit(2).bell_measure(0, 1, "b1", "b2")
    dist = run_exact(c)
    assert dist.probabilities() == pytest.approx({"00": 0.5, "10": 0.5})


def test_bell_measure_rejects_same_qubit():
    with pytest.raises(ValueError):
        Circuit(2).bell_measure(1, 1, "a", "b")


def _random_circuit(rng, num_qubits, num_measure):
    c = Circuit(num_qubits)
    gates = ["H", "X", "Y", "Z", "S", "CNOT"]
    bit = 0
    for _ in range(12):
        kind = gates[rng.integers(len(gates))]
        if kind == "CNOT":
            a, b = rng.choice(num_qubits, size=2, replace=False)
            c.cnot(int(a), int(b))
        else:
            c.gate(kind, int(rng.integers(num_qubits)))
    for _ in range(num_measure):
        c.measure(int(rng.integers(num_qubits)), f"c{bit}")
        bit += 1
    return c


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = _random_circuit(rng, n, int(rng.integers(0, 4)))
        dist = run_exact(c)
        assert sum(e.probability for e in dist.entries) == pytest.approx(1.0, abs=1e-10)


def test_sampled_frequencies_converge():
    rng = np.random.default_rng(23)
    c = _random_circuit(rng, 3, 3)
    shots = 100_000
    probs = run_exact(c).probabilities()
    counts = sample_counts(c, shots, 99)
    for outcome, p in probs.items():
        sigma = np.sqrt(shots * p * (1 - p))
        assert abs(counts.get(outcome, 0) - shots * p) <= 5 * max(sigma, 1.0)


def test_repeated_measure_is_idempotent():
    c1 = Circuit(2).h(0).cnot(0, 1).measure(0, "a").measure(1, "b")
    c2 = Circuit(2).h(0).cnot(0, 1).measure(0, "a").measure(1, "b")
    c2.measure(0, "a2").measure(1, "b2")
    p1 = run_exact(c1).probabilities()
    p2 = {}
    for bits, p in run_exact(c2).probabilities().items():
        assert bits[:2] == bits[2:]  # re-measuring cannot change the outcome
        p2[bits[:2]] = p2.get(bits[:2], 0) + p
    assert p1 == pytest.approx(p2, abs=1e-10)


def test_classical_bit_read_before_write():
    c = Circuit(1)
    with pytest.raises(ValueError, match="classical bit 'nope' read before it is written"):
        c.c_if("X", (0,), "nope")


def test_text_roundtrip():
    c = Circuit(3).h(0).cnot(0, 1).measure(1, "c0").c_if("X", (2,), "c0")
    text = to_text(c)
    back = from_text(text)
    assert run_exact(c).probabilities() == pytest.approx(run_exact(back).probabilities())


def test_remeasured_bit_keeps_every_shot():
    c = Circuit(1).h(0).measure(0, "c").h(0).measure(0, "c")
    assert run_exact(c).probabilities() == pytest.approx({"0": 0.5, "1": 0.5})
    assert sum(sample_counts(c, 1000, 0).values()) == 1000


def test_parse_error_reports_line():
    with pytest.raises(CircuitParseError) as exc:
        from_text("H 0\nFOO 1\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Gate("CNOT", (1, 1)),
        lambda: Gate("SWAP", [0, 0]),
        lambda: Gate("CUSTOM", (2, 2), np.eye(4)),
        lambda: Circuit(2).cnot(1, 1),
        lambda: Circuit(2).c_if("SWAP", (0, 0), "c"),
    ],
    ids=["cnot", "swap", "custom", "circuit_cnot", "controlled"],
)
def test_gate_rejects_duplicate_targets(make):
    with pytest.raises(ValueError, match="duplicate target qubits"):
        make()


def test_parse_duplicate_targets_reports_line():
    with pytest.raises(CircuitParseError, match=r"^line 3: duplicate target qubits") as exc:
        from_text("qubits 3\nH 0\nCNOT 2 2 if c\n")
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("qubits 2\nM 0 -> c\nX 5 if c\n", 3, "qubit 5 out of range"),
        ("H 0\nM 3 -> c\nqubits 2\n", 2, "qubit 3 out of range"),
        ("qubits 2\nCNOT 0 1 if c\n", 2, "classical bit 'c' read before it is written"),
        ("qubits 2\nH 0 if c\nM 0 -> c\n", 2, "classical bit 'c' read before it is written"),
        ("H 0\nqubits 0\n", 2, "num_qubits must be >= 1"),
        ("qubits 2\nX 5\nX 0 if c\n", 2, "qubit 5 out of range"),
    ],
    ids=["range", "range_before_header", "unwritten", "written_later", "no_qubits",
         "first_bad_line"],
)
def test_parse_range_and_unwritten_bit_errors_report_their_line(text, line, message):
    with pytest.raises(CircuitParseError) as exc:
        from_text(text)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line_no == line


def test_parse_comments_and_header():
    c = from_text("# teleport demo\nqubits 4\nH 0\n")
    assert c.num_qubits == 4


def test_repr_lists_steps_and_replays():
    import twobell.circuit as circuit_module

    c = Circuit(2).h(0).measure(0, "c").c_if("X", (1,), "c").measure(1, "o")
    text = repr(c)
    assert text.startswith("Circuit(2, [") and "bit='c'" in text
    back = eval(text, vars(circuit_module))
    assert back.num_qubits == c.num_qubits and back.steps == c.steps
    assert run_exact(back).probabilities() == run_exact(c).probabilities()
