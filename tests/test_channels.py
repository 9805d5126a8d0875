from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobell import channels, experiments
from twobell.channels import (
    CalibrationError,
    CalibrationRecord,
    DurationConfig,
    NoiseModel,
    amplitude_damping_kraus,
    build_noise_model,
    depolarizing_kraus,
    depolarizing_strength,
    ideal_noise_model,
    load_calibration,
    noisy_distribution,
    phase_flip_kraus,
)
from twobell.circuit import (
    GATE_ARITY,
    Circuit,
    Gate,
    Measure,
    run_exact,
    sample_distribution,
    walk,
)
from twobell.cli import packaged_calibration_path
from twobell.experiments import ideal_output_state, noisy_experiment
from twobell.protocols import experiment_circuit
from twobell.qstate import (
    apply_superop,
    partial_trace,
    plus_state,
    superop,
    tensor,
    to_density,
)
from twobell.tomography import expectations_from_settings, fidelity, pure_fidelity, reconstruct
from twobell.transpile import casablanca_topology


def table_records():
    return load_calibration(packaged_calibration_path())


def compose_kraus(first, second):
    """Kraus set of (second after first)."""
    return [b @ a for a in first for b in second]


def assert_trace_preserving(kraus, atol=1e-10):
    d = kraus[0].shape[0]
    total = sum(k.conj().T @ k for k in kraus)
    assert np.max(np.abs(total - np.eye(d))) < atol


def assert_channel_trace_preserving(s, atol=1e-10):
    """Tr S(rho) = Tr rho, for a superoperator on the row-major vec of rho."""
    d = int(round(np.sqrt(s.shape[0])))
    blocks = s.reshape(d, d, d, d)  # [i, j, a, b]: rho[a, b] -> out[i, j]
    assert np.max(np.abs(np.einsum("iiab->ab", blocks) - np.eye(d))) < atol


def act(s, rho):
    """The channel with superoperator ``s`` applied to ``rho``."""
    return (s @ rho.reshape(-1)).reshape(rho.shape)


# -- calibration loading -------------------------------------------------------


def test_load_q0_row():
    r = table_records()[0]
    assert r.qubit == 0
    assert r.t1_us == pytest.approx(97.07)
    assert r.t2_us == pytest.approx(41.56)
    assert r.readout_error == pytest.approx(3.52e-2)
    assert r.pauli_x_error == pytest.approx(2.73e-4)
    assert r.cnot_errors == pytest.approx({1: 1.105e-2})


def test_load_q5_row():
    r = next(rec for rec in table_records() if rec.qubit == 5)
    assert r.cnot_errors == pytest.approx({3: 1.139e-2, 4: 1.148e-2, 6: 1.156e-2})


def test_symmetric_completion():
    by_q = {r.qubit: r for r in table_records()}
    for q, rec in by_q.items():
        for nb, err in rec.cnot_errors.items():
            assert by_q[nb].cnot_errors[q] == pytest.approx(err)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("qubit,t1_us,t2_us,freq_ghz,readout_err,x_err,cnot_errs\n")
    with pytest.raises(CalibrationError, match="no records"):
        load_calibration(p)


def test_bad_header_rejected(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("qubit,t1\n0,1\n")
    with pytest.raises(CalibrationError, match="header"):
        load_calibration(p)


def test_bad_cnot_token_rejected(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text(
        "qubit,t1_us,t2_us,freq_ghz,readout_err,x_err,cnot_errs\n"
        "0,100,100,5,0.01,0.001,bogus\n"
    )
    with pytest.raises(CalibrationError, match="CNOT token"):
        load_calibration(p)


def test_t2_clamped_with_warning(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text(
        "qubit,t1_us,t2_us,freq_ghz,readout_err,x_err,cnot_errs\n"
        "0,100,250,5,0.01,0.001,\n"
    )
    with pytest.warns(UserWarning, match="clamp"):
        (rec,) = load_calibration(p)
    assert rec.t2_us == pytest.approx(200.0)


# -- Kraus construction ---------------------------------------------------------


def test_kraus_sets_trace_preserving():
    for p in (0.0, 0.1, 0.5, 1.0):
        assert_trace_preserving(amplitude_damping_kraus(p))
        assert_trace_preserving(phase_flip_kraus(p))
        assert_trace_preserving(depolarizing_kraus(p, 1))
        assert_trace_preserving(depolarizing_kraus(p, 2))
    assert_trace_preserving(
        compose_kraus(amplitude_damping_kraus(0.3), phase_flip_kraus(0.2))
    )


def test_model_channels_trace_preserving():
    nm = build_noise_model(table_records())
    for q in sorted(nm.qubits()):
        assert_channel_trace_preserving(nm.idle_kraus(q, 500.0))
        assert_channel_trace_preserving(nm.single_gate_kraus(q))
    for pair in nm.cnot_depol:
        a, b = sorted(pair)
        assert_channel_trace_preserving(nm.cnot_gate_kraus(a, b))


def test_confusion_columns_sum_to_one():
    nm = build_noise_model(table_records())
    for m in nm.confusion.values():
        assert np.allclose(m.sum(axis=0), [1, 1])


def test_ideal_model_is_identity():
    nm = ideal_noise_model(2)
    for s in (nm.idle_kraus(0, 1000.0), nm.single_gate_kraus(0)):
        assert_channel_trace_preserving(s)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = act(s, rho)
        assert np.max(np.abs(out - rho)) < 1e-12


def test_idle_half_life_gives_half_damping():
    nm = build_noise_model(table_records())
    t_half = nm.t1_ns[0] * np.log(2)
    rho1 = np.array([[0, 0], [0, 1]], dtype=complex)
    out = act(nm.idle_kraus(0, t_half), rho1)
    assert out[0, 0].real == pytest.approx(0.5, abs=1e-12)


def test_cnot_depolarizing_strength_from_reported_error():
    nm = build_noise_model(table_records())
    assert nm.cnot_depol[frozenset((1, 3))] == pytest.approx(6.796e-3 * 5 / 4)
    assert depolarizing_strength(0.01, 1) == pytest.approx(0.015)


def one_qubit_model(t1_ns, t2_ns):
    return NoiseModel({0: t1_ns}, {0: t2_ns}, {0: 0.0}, {}, {0: np.eye(2)})


@given(st.floats(1e2, 1e6), st.floats(0.01, 2.0), st.floats(0.0, 5.0))
def test_idle_dephases_plus_state_at_t2(t1_ns, t2_over_t1, t_over_t1):
    t2_ns, t = t2_over_t1 * t1_ns, t_over_t1 * t1_ns
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = act(one_qubit_model(t1_ns, t2_ns).idle_kraus(0, t), plus)
    assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-t / t2_ns), abs=1e-12)


@given(st.floats(1e2, 1e6), st.floats(0.01, 2.0), st.floats(0.0, 1e4), st.floats(0.0, 1e4))
def test_idle_channels_compose_in_time(t1_ns, t2_over_t1, s_ns, t_ns):
    """idle(s) then idle(t) is idle(s + t): the engine pays each qubit's
    owed idle time as one channel."""
    nm = one_qubit_model(t1_ns, t2_over_t1 * t1_ns)
    both = nm.channel("idle_kraus", 0, s_ns + t_ns)
    steps = nm.channel("idle_kraus", 0, t_ns) @ nm.channel("idle_kraus", 0, s_ns)
    assert np.max(np.abs(both - steps)) < 1e-12


def average_gate_infidelity(s):
    """1 - F_avg of the channel with superoperator ``s``, with
    F_avg = (d F_e + 1) / (d + 1), F_e = Tr S / d^2."""
    d = int(round(np.sqrt(s.shape[0])))
    return 1.0 - (d * np.trace(s).real / d ** 2 + 1) / (d + 1)


@given(st.floats(0.0, 0.6), st.sampled_from([1, 2]))
def test_depolarizing_part_has_reported_average_infidelity(err, k):
    kraus = depolarizing_kraus(depolarizing_strength(err, k), k)
    assert average_gate_infidelity(superop(kraus)) == pytest.approx(err, abs=1e-12)


# Infidelity of the whole gate channel (decay over the gate's duration,
# then depolarizing at the reported error) over the reported error, per
# gate of the builtin table: the reported error is the depolarizing
# part alone, so the decay comes on top of it.
SINGLE_GATE_INFIDELITY_RATIO = {
    0: 2.265, 1: 1.923, 2: 1.448, 3: 1.371, 4: 1.918, 5: 1.546, 6: 1.264,
}
CNOT_INFIDELITY_RATIO = {
    (0, 1): 1.441, (1, 2): 1.298, (1, 3): 1.399, (3, 5): 1.262, (4, 5): 1.380, (5, 6): 1.256,
}


def test_gate_channels_exceed_reported_error_by_their_decay():
    records = table_records()
    nm = build_noise_model(records)
    for r in records:
        ratio = average_gate_infidelity(nm.single_gate_kraus(r.qubit)) / r.pauli_x_error
        assert ratio == pytest.approx(SINGLE_GATE_INFIDELITY_RATIO[r.qubit], abs=5e-4)
        for nb, err in r.cnot_errors.items():
            ratio = average_gate_infidelity(nm.cnot_gate_kraus(r.qubit, nb)) / err
            assert ratio == pytest.approx(CNOT_INFIDELITY_RATIO[tuple(sorted((r.qubit, nb)))], abs=5e-4)


def test_missing_cnot_calibration_raises():
    nm = build_noise_model(table_records())
    with pytest.raises(CalibrationError):
        nm.cnot_gate_kraus(0, 6)


# -- noisy execution ------------------------------------------------------------


def test_ideal_model_gives_uniform_output():
    dist = noisy_experiment(ideal_noise_model(7)).setting_dists["ZZ"]
    assert dist == pytest.approx({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})


def test_table1_output_nonuniform_but_bounded():
    nm = build_noise_model(table_records())
    dist = noisy_experiment(nm).setting_dists["ZZ"]
    probs = [dist.get(o, 0.0) for o in ("00", "01", "10", "11")]
    assert all(0.15 < p < 0.35 for p in probs)
    assert max(probs) - min(probs) > 0.005


def test_readout_only_tomography_closed_form():
    # Symmetric readout flips shrink <XI>, <IX> and <XX> of |++> by (1 - 2e)
    # per receiver, so infinite-shot tomography has fidelity (1 - e_a)(1 - e_b).
    base = build_noise_model(table_records())
    nm = replace(base, t1_ns={q: np.inf for q in base.t1_ns}, t2_ns={q: np.inf for q in base.t2_ns},
                 x_depol={q: 0.0 for q in base.x_depol},
                 cnot_depol={pair: 0.0 for pair in base.cnot_depol})
    run = noisy_experiment(nm)
    e_a, e_b = (nm.confusion[q][1, 0] for q in run.receivers)
    assert run.receivers == (2, 4) and (e_a, e_b) == (0.0085, 0.0306)
    rho = reconstruct(expectations_from_settings(run.setting_dists, 2), 2)
    f = fidelity(to_density(ideal_output_state()), rho)
    assert abs(f - (1 - e_a) * (1 - e_b)) < 1e-12
    assert f == pytest.approx(0.96116, abs=1e-5)


def test_x_then_readout_closed_form():
    (q0,) = [r for r in table_records() if r.qubit == 0]
    nm = build_noise_model([q0])
    c = Circuit(1).x(0).measure(0, "c0")
    _, dist = noisy_distribution(c, nm)
    e = q0.readout_error
    # Read-0 probability is the confusion flip plus small gate-noise terms.
    assert dist["0"] > e
    assert dist["0"] == pytest.approx(e, abs=5e-3)


def test_counts_sum_and_trace():
    nm = build_noise_model(table_records())
    c = Circuit(2).h(0).cnot(0, 1).measure(0, "a").measure(1, "b")
    final_dm, dist = noisy_distribution(c, nm)
    counts = sample_distribution(dist, 4096, 7)
    assert sum(counts.values()) == 4096
    assert np.trace(final_dm.entries).real == pytest.approx(1.0, abs=1e-8)


def test_run_noisy_seed_deterministic():
    nm = build_noise_model(table_records())
    c = Circuit(1).h(0).measure(0, "c0")
    counts = [sample_distribution(noisy_distribution(c, nm)[1], 1000, 5) for _ in range(2)]
    assert counts[0] == counts[1]


def test_zero_noise_limit_matches_exact():
    records = [
        type(table_records()[0])(
            qubit=q,
            t1_us=1e12,
            t2_us=1e12,
            frequency_ghz=5.0,
            readout_error=0.0,
            pauli_x_error=0.0,
            cnot_errors={nb: 0.0 for nb in range(4) if nb != q},
        )
        for q in range(4)
    ]
    nm = build_noise_model(records, DurationConfig(1e-6, 1e-6, 1e-6))
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = Circuit(4)
        for _ in range(8):
            if rng.random() < 0.4:
                a, b = rng.choice(4, size=2, replace=False)
                c.cnot(int(a), int(b))
            else:
                c.gate(["H", "X", "S"][rng.integers(3)], int(rng.integers(4)))
        c.measure(0, "a").measure(3, "b")
        exact = run_exact(c).probabilities()
        _, dist = noisy_distribution(c, nm)
        for outcome in set(exact) | set(dist):
            assert dist.get(outcome, 0.0) == pytest.approx(
                exact.get(outcome, 0.0), abs=1e-9
            )


def test_remeasured_bit_engines_agree():
    c = Circuit(2).h(0).measure(0, "c").x(0).measure(0, "c")
    c.c_if("X", (1,), "c").measure(1, "o")
    exact = run_exact(c).probabilities()
    _, dist = noisy_distribution(c, ideal_noise_model(2))
    assert exact == pytest.approx({"00": 0.5, "11": 0.5})
    assert set(dist) == set(exact)
    for outcome, p in exact.items():
        assert dist[outcome] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("kind", ["X", "CNOT", "SWAP"])
def test_controlled_gate_takes_its_window_whether_or_not_it_fires(kind):
    """A spectator in |1> decays the same under a gate whose control does
    not fire as under the same gate run unconditionally."""
    nm = build_noise_model(table_records())
    targets = tuple(range(GATE_ARITY[kind]))

    def spectator(step):
        c = Circuit(3).x(2).measure(0, "c").add(step)
        final, _ = noisy_distribution(c, nm)
        return partial_trace(final, {2}).entries

    skipped = spectator(replace(Gate(kind, targets), bit="c"))
    fired = spectator(Gate(kind, targets))
    assert np.max(np.abs(skipped - fired)) < 1e-12


@st.composite
def branching_circuits(draw):
    """Up to 4 qubits with mid-circuit measurements into a small pool of
    bits, then a re-measured bit and a control on it."""
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    kinds = sorted(k for k, arity in GATE_ARITY.items() if arity <= n)

    def gate():
        kind = draw(st.sampled_from(kinds))
        targets = draw(st.permutations(range(n)))[: GATE_ARITY[kind]]
        return Gate(kind, tuple(targets))

    def control(bit):
        return replace(gate(), bit=bit)

    c = Circuit(n).h(draw(qubit)).measure(draw(qubit), "a")
    written = ["a"]
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from(["gate", "measure", "control"]))
        if step == "gate":
            c.add(gate())
        elif step == "measure":
            bit = draw(st.sampled_from(["a", "b"]))
            c.measure(draw(qubit), bit)
            written.append(bit)
        else:
            c.add(control(draw(st.sampled_from(written))))
    c.measure(draw(qubit), "a")
    c.add(control("a"))
    return c


@settings(max_examples=60)
@given(branching_circuits())
def test_noiseless_engine_matches_exact_engine(c):
    exact = run_exact(c).probabilities()
    _, dist = noisy_distribution(c, ideal_noise_model(c.num_qubits))
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    for outcome in set(exact) | set(dist):
        assert dist.get(outcome, 0.0) == pytest.approx(exact.get(outcome, 0.0), abs=1e-9)


def eager_noisy_distribution(c, nm):
    """Reference engine that idles eagerly: after each gate every other
    qubit idles for the gate's window, a gate whose control does not fire
    idles every qubit, and each kept outcome idles every qubit for the
    readout.  Returns (distribution after readout confusion, final rho)."""
    n, dur = c.num_qubits, nm.durations

    def idle_all(rho, duration, busy=()):
        for q in range(n):
            if q not in busy:
                rho = apply_superop(rho, nm.channel("idle_kraus", q, duration), [q], n)
        return rho

    def repeats(gate):
        return 3 if gate.kind == "SWAP" else 1

    def window(gate):
        one = dur.single_qubit_gate_ns if len(gate.targets) == 1 else dur.cnot_ns
        return repeats(gate) * one

    def apply(rho, gate):
        rho = apply_superop(rho, superop([gate.unitary()]), gate.targets, n)
        build = "single_gate_kraus" if len(gate.targets) == 1 else "cnot_gate_kraus"
        for _ in range(repeats(gate)):
            rho = apply_superop(rho, nm.channel(build, *gate.targets), gate.targets, n)
        return idle_all(rho, window(gate), busy=gate.targets)

    def project(rho, qubit):
        for outcome in (0, 1):
            sub = apply_superop(rho, superop([np.diag(np.eye(2)[outcome])]), [qubit], n)
            yield np.trace(sub).real, sub

    rho0 = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho0[0, 0] = 1.0
    branches = walk(c, rho0, apply, lambda rho, gate: idle_all(rho, window(gate)), project,
                    lambda sub, w: idle_all(sub / w, dur.readout_ns))
    read_by = {s.bit: s.qubit for s in c.steps if isinstance(s, Measure)}
    dist = {}
    for bits, p, _ in branches:
        recorded = {"": p}
        for name in c.measured:
            conf = nm.confusion[read_by[name]]
            recorded = {rec + str(r): w * conf[r, bits[name]]
                        for rec, w in recorded.items() for r in (0, 1)}
        for rec, w in recorded.items():
            dist[rec] = dist.get(rec, 0.0) + w
    return dist, sum(p * rho for _, p, rho in branches)


@settings(max_examples=40, deadline=None)
@given(branching_circuits())
def test_owed_idles_match_eager_idles(c):
    nm = all_pairs_model()
    final, dist = noisy_distribution(c, nm)
    ref_dist, ref_final = eager_noisy_distribution(c, nm)
    assert set(dist) == set(ref_dist)
    for outcome, p in ref_dist.items():
        assert dist[outcome] == pytest.approx(p, abs=1e-12)
    assert np.max(np.abs(final.entries - ref_final)) < 1e-12


def test_final_matrix_stays_psd_random_circuits():
    nm = build_noise_model(table_records())
    edges = sorted(tuple(sorted(e)) for e in casablanca_topology().edges)
    rng = np.random.default_rng(19)
    for _ in range(5):
        c = Circuit(7)
        for _ in range(10):
            if rng.random() < 0.5:
                a, b = edges[rng.integers(len(edges))]
                c.cnot(a, b)
            else:
                c.gate(["H", "X", "Z", "S"][rng.integers(4)], int(rng.integers(7)))
        c.measure(int(rng.integers(7)), "c0")
        final_dm, _ = noisy_distribution(c, nm)
        assert np.min(np.linalg.eigvalsh(final_dm.entries)) > -1e-8


def _all_pairs_model(records):
    base = build_noise_model(records)
    mean_cnot = float(np.mean(list(base.cnot_depol.values())))
    pairs = {frozenset((a, b)): mean_cnot for a in range(6) for b in range(6) if a < b}
    return NoiseModel(
        t1_ns={q: base.t1_ns[q] for q in range(6)},
        t2_ns={q: base.t2_ns[q] for q in range(6)},
        x_depol={q: base.x_depol[q] for q in range(6)},
        cnot_depol=pairs,
        confusion={q: np.eye(2) for q in range(6)},
        durations=base.durations,
    )


def test_noisy_teleport_fidelity_never_exceeds_ideal():
    from twobell.protocols import GeneralizedBellTypeState

    nm = _all_pairs_model(table_records())
    rng = np.random.default_rng(29)
    for _ in range(20):
        va = rng.normal(size=2) + 1j * rng.normal(size=2)
        va /= np.linalg.norm(va)
        vb = rng.normal(size=2) + 1j * rng.normal(size=2)
        vb /= np.linalg.norm(vb)
        qa = GeneralizedBellTypeState(1, int(rng.integers(2)), va[0], va[1])
        qb = GeneralizedBellTypeState(1, int(rng.integers(2)), vb[0], vb[1])
        ideal_a, ideal_b = qa.to_statevector(), qb.to_statevector()
        c = experiment_circuit(ideal_a, ideal_b, measure_outputs=False)
        final_dm, _ = noisy_distribution(c, nm)
        marginal = partial_trace(final_dm, {2, 5})
        ideal = tensor(ideal_a, ideal_b)
        fid = pure_fidelity(ideal, marginal)
        assert fid <= 1.0 + 1e-9
        assert fid < 1.0  # noise strictly degrades the transfer


AXIS_STATES = [
    np.array(v, dtype=complex) / np.linalg.norm(v)
    for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])
]


def test_teleport_through_noisy_pair_gives_two_f_plus_one_over_three():
    """Standard teleportation through a pair of singlet fraction F (its
    overlap with the Bell state the corrections assume) has average
    fidelity (2F + 1) / 3; the six axis states form a 2-design."""
    nm = build_noise_model(table_records())
    pair, _ = noisy_distribution(Circuit(2).h(0).cnot(0, 1), nm)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    f = (bell.conj() @ pair.entries @ bell).real
    assert 0.5 < f < 0.99
    c = Circuit(3).cnot(0, 1).h(0).measure(0, "m1").measure(1, "m2")
    c.c_if("X", (2,), "m2").c_if("Z", (2,), "m1")
    fids = []
    for psi in AXIS_STATES:
        rho = np.kron(np.outer(psi, psi.conj()), pair.entries)
        out, _ = noisy_distribution(c, ideal_noise_model(3), initial_rho=rho)
        fids.append((psi.conj() @ partial_trace(out, {2}).entries @ psi).real)
    assert np.mean(fids) == pytest.approx((2 * f + 1) / 3, abs=1e-9)


# -- cached superoperators ------------------------------------------------------


@st.composite
def calibrated_models(draw):
    """A noise model from a random valid calibration of the 7-qubit device
    graph, with random gate and readout durations."""
    prob = st.floats(0.0, 1.0)
    edges = sorted(tuple(sorted(e)) for e in casablanca_topology().edges)
    cnot_err = {e: draw(prob) for e in edges}
    records = []
    for q in range(7):
        t1 = draw(st.floats(1.0, 500.0))
        t2 = 2 * t1 * draw(st.floats(0.01, 1.0))
        neighbours = {b if a == q else a: e for (a, b), e in cnot_err.items() if q in (a, b)}
        records.append(CalibrationRecord(q, t1, t2, 5.0, draw(prob), draw(prob), neighbours))
    ns = st.floats(1.0, 2000.0)
    return build_noise_model(records, DurationConfig(draw(ns), draw(ns), draw(ns)))


def model_channels(nm):
    """Every superoperator ``noisy_distribution`` can ask ``nm`` for."""
    dur = nm.durations
    idle_ns = (dur.single_qubit_gate_ns, dur.cnot_ns, 3 * dur.cnot_ns, dur.readout_ns)
    for q in sorted(nm.qubits()):
        yield from (nm.channel("idle_kraus", q, t) for t in idle_ns)
        yield nm.channel("single_gate_kraus", q)
    for pair in nm.cnot_depol:
        yield nm.channel("cnot_gate_kraus", *sorted(pair))


@settings(max_examples=20)
@given(calibrated_models())
def test_cached_superoperators_are_cptp(nm):
    for s in model_channels(nm):
        d = int(round(np.sqrt(s.shape[0])))
        blocks = s.reshape(d, d, d, d)  # [i, j, a, b]: rho[a, b] -> out[i, j]
        assert np.max(np.abs(np.einsum("iiab->ab", blocks) - np.eye(d))) < 1e-10
        choi = blocks.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(choi)) > -1e-10


def idle_kraus_set(nm, q, t):
    """The idle channel as a Kraus set: amplitude damping, then dephasing."""
    p_amp = 1.0 - np.exp(-t / nm.t1_ns[q])
    rate_phi = max(0.0, 1.0 / nm.t2_ns[q] - 1.0 / (2.0 * nm.t1_ns[q]))
    p_flip = 0.5 * (1.0 - np.exp(-rate_phi * t))
    return compose_kraus(amplitude_damping_kraus(p_amp), phase_flip_kraus(p_flip))


@settings(max_examples=20)
@given(calibrated_models(), st.floats(1.0, 1e4))
def test_folded_channels_equal_their_kraus_compositions(nm, t):
    dur = nm.durations
    for q in sorted(nm.qubits()):
        kraus = idle_kraus_set(nm, q, t)
        assert np.max(np.abs(nm.channel("idle_kraus", q, t) - superop(kraus))) < 1e-12
        kraus = compose_kraus(idle_kraus_set(nm, q, dur.single_qubit_gate_ns),
                              depolarizing_kraus(nm.x_depol[q], 1))
        assert np.max(np.abs(nm.channel("single_gate_kraus", q) - superop(kraus))) < 1e-12
    for pair in nm.cnot_depol:
        for a, b in (sorted(pair), sorted(pair, reverse=True)):
            decay = [np.kron(ka, kb) for ka in idle_kraus_set(nm, a, dur.cnot_ns)
                     for kb in idle_kraus_set(nm, b, dur.cnot_ns)]
            kraus = compose_kraus(decay, depolarizing_kraus(nm.cnot_depol[pair], 2))
            assert np.max(np.abs(nm.channel("cnot_gate_kraus", a, b) - superop(kraus))) < 1e-12


def assert_valid_rho(rho):
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


@settings(max_examples=8)
@given(calibrated_models())
def test_rho_stays_valid_after_every_step_of_routed_paper_circuit(nm):
    _, routed, _, _ = experiments.routed_experiment()
    real_walk = channels.walk
    checked = []

    def checked_walk(c, state, apply, skip, project, settle):
        def check(step):
            def run(*args):
                state = step(*args)  # (rho, idle time each qubit owes)
                assert_valid_rho(state[0])
                checked.append(1)
                return state

            return run

        return real_walk(c, state, check(apply), check(skip), project, check(settle))

    channels.walk = checked_walk
    try:
        noisy_distribution(routed, nm)
    finally:
        channels.walk = real_walk
    assert len(checked) > len(routed.steps)


def test_noisy_experiment_builds_each_channel_once(monkeypatch):
    nm = build_noise_model(table_records())
    builds, depth = [], [0]
    for name in ("idle_kraus", "single_gate_kraus", "cnot_gate_kraus"):
        build = getattr(NoiseModel, name)

        def counted(self, *args, build=build, name=name):
            # Count only the builds the cache asks for, not the idle
            # channels a gate constructor composes inside itself.
            if depth[0] == 0:
                builds.append((name, *args))
            depth[0] += 1
            try:
                return build(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(NoiseModel, name, counted)
    experiments.noisy_experiment(nm)
    # Qubit 6 is outside the light cone, so none of its idles is built;
    # an idle channel is built for each distinct owed duration.
    assert len(builds) == len(set(builds)) == 37
    experiments.noisy_experiment(nm)
    assert len(builds) == 37


def test_noisy_experiment_apply_superop_calls(monkeypatch):
    calls = []
    real = channels.apply_superop

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(channels, "apply_superop", counted)
    experiments.noisy_experiment(build_noise_model(table_records()))
    assert len(calls) == 350


# -- light cone -----------------------------------------------------------------


def all_pairs_model():
    """The packaged calibration with a distinct CNOT error on every pair,
    so a CNOT on the wrong calibrated pair changes the result."""
    base = build_noise_model(table_records())
    pairs = {
        frozenset((a, b)): 0.01 + 0.001 * a + 0.0001 * b for a in range(7) for b in range(a + 1, 7)
    }
    return replace(base, cnot_depol=pairs)


@st.composite
def embedded_circuits(draw):
    """A branching circuit on k <= 4 qubits and the calibrated positions
    (distinct, in any order) its qubits sit at in the 7-qubit register."""
    k = draw(st.integers(1, 4))
    positions = tuple(draw(st.permutations(range(7)))[:k])
    qubit = st.integers(0, k - 1)
    kinds = sorted(kind for kind, arity in GATE_ARITY.items() if arity <= k)
    c = Circuit(k).h(draw(qubit)).measure(draw(qubit), "a")
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from(["gate", "measure", "control"]))
        if step == "measure":
            c.measure(draw(qubit), draw(st.sampled_from(["a", "b"])))
            continue
        kind = draw(st.sampled_from(kinds))
        targets = tuple(draw(st.permutations(range(k)))[: GATE_ARITY[kind]])
        bit = "a" if step == "control" else None
        c.add(Gate(kind, targets, bit=bit))
    return c.measure(draw(qubit), "b"), positions


def embed(c, positions):
    """``c`` on the 7-qubit register, its qubit i at ``positions[i]``."""
    def place(step):
        if isinstance(step, Gate):
            return replace(step, targets=[positions[q] for q in step.targets])
        return replace(step, qubit=positions[step.qubit])

    return Circuit(7, [place(step) for step in c.steps])


def in_ascending_order(rho, positions):
    """``rho`` over qubits at ``positions`` with its qubits permuted into
    ascending position order, the order ``partial_trace`` keeps."""
    k = len(positions)
    order = sorted(range(k), key=lambda i: positions[i])
    return rho.reshape([2] * (2 * k)).transpose(order + [k + i for i in order]).reshape(2 ** k, -1)


@settings(max_examples=30, deadline=None)
@given(embedded_circuits())
def test_compact_run_with_qubit_map_matches_full_width_run(case):
    c, positions = case
    nm = all_pairs_model()
    compact, compact_dist = noisy_distribution(c, nm, qubits=positions)
    full, full_dist = noisy_distribution(embed(c, positions), nm)
    assert set(compact_dist) == set(full_dist)
    for outcome, p in full_dist.items():
        assert compact_dist[outcome] == pytest.approx(p, abs=1e-12)
    marginal = partial_trace(full, set(positions)).entries
    assert np.max(np.abs(in_ascending_order(compact.entries, positions) - marginal)) < 1e-12


def test_noisy_experiment_matches_full_width_run():
    """The routed circuit and the nine tails on all 7 qubits give the
    experiment's receiver state and setting distributions."""
    nm = build_noise_model(table_records())
    exp = noisy_experiment(nm)
    _, routed, receivers, _ = experiments.routed_experiment()
    full, _ = noisy_distribution(routed, nm)
    marginal = partial_trace(full, set(receivers)).entries
    assert np.max(np.abs(in_ascending_order(exp.state.entries, receivers) - marginal)) < 1e-12
    for setting, dist in exp.setting_dists.items():
        tail = embed(experiments._tail_circuit(setting), receivers)
        _, ref = noisy_distribution(tail, nm, initial_rho=full.entries)
        assert set(dist) == set(ref)
        for outcome, p in ref.items():
            assert dist[outcome] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("q", range(7))
def test_qubit_map_reads_the_calibrated_qubit(q):
    nm = build_noise_model(table_records())
    alone = NoiseModel(
        {0: nm.t1_ns[q]}, {0: nm.t2_ns[q]}, {0: nm.x_depol[q]}, {}, {0: nm.confusion[q]}
    )
    # H leaves a coherence that T1, T2 and the gate error shrink; the
    # readout of X adds the confusion.
    for c in (Circuit(1).h(0), Circuit(1).x(0).measure(0, "c")):
        mapped, mapped_dist = noisy_distribution(c, nm, qubits=(q,))
        ref, ref_dist = noisy_distribution(c, alone)
        assert np.max(np.abs(mapped.entries - ref.entries)) < 1e-15
        assert mapped_dist == pytest.approx(ref_dist, abs=1e-15)


def test_qubit_map_must_name_one_distinct_qubit_each():
    nm = build_noise_model(table_records())
    c = Circuit(2).cnot(0, 1)
    for qubits in [(1,), (1, 1), (1, 2, 3)]:
        with pytest.raises(ValueError, match="qubits must map"):
            noisy_distribution(c, nm, qubits=qubits)
    with pytest.raises(CalibrationError, match="no calibration"):
        noisy_distribution(c, nm, qubits=(1, 9))
