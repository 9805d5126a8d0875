import numpy as np
import pytest

from twobell.circuit import Circuit, run_exact
from twobell.protocols import (
    GeneralizedBellTypeState,
    ResourceReport,
    cluster_channel_teleport,
    compress_ghz_class,
    expand_ghz_class,
    multi_output_teleport,
    prepare_cluster5,
    teleport_single,
    teleport_two_qubit_general,
)
from twobell.qstate import (
    StateVector,
    partial_trace,
    plus_state,
    prep_unitary,
    project_qubits,
    single_qubit_state,
    tensor,
    to_density,
)
from twobell.tomography import pure_fidelity

SQ2 = 1 / np.sqrt(2)


def random_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return v[0], v[1]


def random_bell_type(n, rng):
    a, b = random_pair(rng)
    return GeneralizedBellTypeState(n, int(rng.integers(0, 2 ** n)), a, b)


# -- constructors -------------------------------------------------------------


def test_make_ghz_class_plus():
    got = GeneralizedBellTypeState(1, 0, SQ2, SQ2).to_statevector().amplitudes
    assert np.allclose(got, [SQ2, SQ2])


def test_make_ghz_class_00():
    got = GeneralizedBellTypeState(2, 0, 1, 0).to_statevector().amplitudes
    assert np.allclose(got, [1, 0, 0, 0])


def test_make_ghz_class_3_qubits():
    got = GeneralizedBellTypeState(3, 0, 0.6, 0.8).to_statevector().amplitudes
    expected = np.zeros(8)
    expected[0], expected[7] = 0.6, 0.8
    assert np.allclose(got, expected)


def test_make_ghz_class_rejects_bad_input():
    with pytest.raises(ValueError):
        GeneralizedBellTypeState(0, 0, 1, 0)
    with pytest.raises(ValueError):
        GeneralizedBellTypeState(1, 0, 1, 1)


def test_cluster5_support_and_norm():
    psi = prepare_cluster5()
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
    assert set(np.flatnonzero(psi.amplitudes)) == {0, 11, 20, 31}


def test_cluster5_first_two_qubits_maximally_mixed():
    red = partial_trace(to_density(prepare_cluster5()), {0, 1})
    assert np.allclose(red.entries, np.eye(4) / 4, atol=1e-12)


# -- compression ---------------------------------------------------------------


def steps(compression):
    return [(g.kind, g.targets) for g in compression.steps]


def test_compress_ghz_class_eq5():
    s = GeneralizedBellTypeState(2, 0, 0.6, 0.8j)
    q, compression = compress_ghz_class(s)
    assert np.allclose(q.amplitudes, [0.6, 0.8j])
    assert steps(compression) == [("CNOT", (0, 1))]


def test_compress_identity_case():
    s = GeneralizedBellTypeState(1, 0, 0.6, 0.8)
    q, compression = compress_ghz_class(s)
    assert np.allclose(q.amplitudes, [0.6, 0.8])
    assert steps(compression) == []


def test_compress_x_equals_1():
    # alpha|01> + beta|10>: CNOT then X on qubit 1.
    s = GeneralizedBellTypeState(2, 1, 0.6, 0.8)
    q, compression = compress_ghz_class(s)
    assert np.allclose(q.amplitudes, [0.6, 0.8])
    assert steps(compression) == [("CNOT", (0, 1)), ("X", (1,))]


def test_compress_ladder_descends_then_flips_tail_then_head():
    # x = 101: the ladder runs from the last qubit down, the tail qubit
    # left at 1 (qubit 1, since bit 0 is set) flips, then the head.
    _, compression = compress_ghz_class(GeneralizedBellTypeState(3, 0b101, 0.6, 0.8))
    assert steps(compression) == [("CNOT", (0, 2)), ("CNOT", (0, 1)), ("X", (1,)), ("X", (0,))]


def test_expand_with_empty_record_is_identity():
    q, compression = compress_ghz_class(GeneralizedBellTypeState(1, 0, SQ2, SQ2))
    out = expand_ghz_class(q, compression)
    assert np.allclose(out.amplitudes, q.amplitudes)


def test_roundtrip_all_x():
    rng = np.random.default_rng(4)
    for n in range(1, 6):
        for x in range(2 ** n):
            a, b = random_pair(rng)
            s = GeneralizedBellTypeState(n, x, a, b)
            q, compression = compress_ghz_class(s)
            back = expand_ghz_class(q, compression)
            assert np.max(np.abs(back.amplitudes - s.to_statevector().amplitudes)) < 1e-12


def test_expand_rejects_malformed_record():
    """Only a circuit of unconditional X and CNOT gates undoes itself when
    reversed; anything else is not a compression."""
    with pytest.raises(ValueError, match="not a compression"):
        expand_ghz_class(plus_state(), Circuit(2).cnot(0, 1).h(1))
    with pytest.raises(ValueError, match="not a compression"):
        expand_ghz_class(plus_state(), Circuit(2).measure(1, "m").c_if("X", (0,), "m"))


# -- teleportation -------------------------------------------------------------


def assert_all_branches_match(branches, ideal, count=None, prob=None):
    ideal_dm = to_density(ideal)
    if count is not None:
        assert len(branches) == count
    for b in branches:
        if prob is not None:
            assert b.probability == pytest.approx(prob, abs=1e-10)
        assert pure_fidelity(b.output, ideal_dm) == pytest.approx(1.0, abs=1e-10)


def test_teleport_single_basis_state():
    assert_all_branches_match(teleport_single(single_qubit_state(1, 0)),
                              single_qubit_state(1, 0), count=4, prob=0.25)


def test_teleport_single_plus():
    assert_all_branches_match(teleport_single(plus_state()), plus_state(),
                              count=4, prob=0.25)


def test_teleport_single_generic():
    psi = single_qubit_state(0.6, 0.8j)
    assert_all_branches_match(teleport_single(psi), psi, count=4, prob=0.25)


def test_correction_table_is_the_unique_fix():
    # Re-run the teleport circuit without corrections and check that only
    # the table's Pauli recovers a generic input for each outcome.
    psi = single_qubit_state(0.6, 0.8)
    c = Circuit(3)
    c.custom(prep_unitary(psi.amplitudes), [0])
    c.h(1)
    c.cnot(1, 2)
    c.bell_measure(0, 1, "b1", "b2")
    dist = run_exact(c)
    paulis = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
        "ZX": np.array([[0, 1], [-1, 0]]),
    }
    table = {"00": "I", "01": "X", "10": "Z", "11": "ZX"}
    ideal = to_density(psi)
    for e in dist.entries:
        bob = project_qubits(e.state, {0: int(e.bits[0]), 1: int(e.bits[1])})
        for name, mat in paulis.items():
            fixed = StateVector(1, (mat @ bob.amplitudes) / np.linalg.norm(mat @ bob.amplitudes))
            fid = pure_fidelity(fixed, ideal)
            if name == table[e.bits]:
                assert fid == pytest.approx(1.0, abs=1e-10)
            else:
                assert fid < 1 - 1e-6


def test_multi_output_plus_case():
    chi_a = GeneralizedBellTypeState(1, 0, SQ2, SQ2)
    chi_b = GeneralizedBellTypeState(2, 0, SQ2, SQ2)
    branches, report = multi_output_teleport(chi_a, chi_b)
    ideal = tensor(chi_a.to_statevector(), chi_b.to_statevector())
    assert_all_branches_match(branches, ideal, count=16, prob=1 / 16)
    assert report == ResourceReport(4)


def test_multi_output_basis_case():
    chi_a = GeneralizedBellTypeState(1, 0, 1, 0)
    chi_b = GeneralizedBellTypeState(2, 0, 1, 0)
    branches, _ = multi_output_teleport(chi_a, chi_b)
    assert_all_branches_match(branches, tensor(chi_a.to_statevector(), chi_b.to_statevector()))


def test_multi_output_m2_random():
    rng = np.random.default_rng(12)
    chi_a = random_bell_type(2, rng)
    chi_b = random_bell_type(3, rng)
    branches, _ = multi_output_teleport(chi_a, chi_b)
    ideal = tensor(chi_a.to_statevector(), chi_b.to_statevector())
    assert_all_branches_match(branches, ideal, count=16, prob=1 / 16)


def test_multi_output_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        multi_output_teleport(
            GeneralizedBellTypeState(1, 0, 1, 0), GeneralizedBellTypeState(3, 0, 1, 0)
        )


def test_branch_probability_uniformity_any_coefficients():
    rng = np.random.default_rng(21)
    for _ in range(5):
        branches, _ = multi_output_teleport(random_bell_type(1, rng), random_bell_type(2, rng))
        for b in branches:
            assert b.probability == pytest.approx(1 / 16, abs=1e-10)


def test_cluster_teleport_matches_two_bell_scheme():
    rng = np.random.default_rng(31)
    for _ in range(5):
        chi_a = random_bell_type(1, rng)
        chi_b = random_bell_type(2, rng)
        cluster = cluster_channel_teleport(chi_a, chi_b)
        two_bell, _ = multi_output_teleport(chi_a, chi_b)
        by_bits = {b.outcome_bits: b for b in cluster}
        assert len(cluster) == 16
        for b in two_bell:
            other = by_bits[b.outcome_bits]
            assert pure_fidelity(b.output, to_density(other.output)) == pytest.approx(
                1.0, abs=1e-10
            )


def test_cluster_teleport_basis_case():
    chi_a = GeneralizedBellTypeState(1, 0, 1, 0)
    chi_b = GeneralizedBellTypeState(2, 0, 1, 0)
    branches = cluster_channel_teleport(chi_a, chi_b)
    assert_all_branches_match(branches, tensor(chi_a.to_statevector(), chi_b.to_statevector()))


def test_cluster_teleport_rejects_wrong_m():
    with pytest.raises(ValueError):
        cluster_channel_teleport(
            GeneralizedBellTypeState(2, 0, 1, 0), GeneralizedBellTypeState(3, 0, 1, 0)
        )


def test_two_qubit_general_bell_input():
    s = StateVector(2, [SQ2, 0, 0, SQ2])
    branches, report = teleport_two_qubit_general(s)
    assert_all_branches_match(branches, s, count=16, prob=1 / 16)
    assert report.bell_pairs == 2


def test_two_qubit_general_basis():
    branches, _ = teleport_two_qubit_general(StateVector(2, [1, 0, 0, 0]))
    assert_all_branches_match(branches, StateVector(2, [1, 0, 0, 0]))


def test_two_qubit_general_random():
    rng = np.random.default_rng(8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    s = StateVector(2, v)
    branches, _ = teleport_two_qubit_general(s)
    assert_all_branches_match(branches, s, count=16)


def test_count_bell_resources():
    assert ResourceReport(4).bell_pairs == 2
    assert ResourceReport(1).bell_pairs == 0
    assert ResourceReport(5).bell_pairs == 3
    with pytest.raises(ValueError):
        ResourceReport(0)


def test_resource_report_invariants():
    # Both counts derive from n, so no report can disagree with it.
    for n, pairs in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10)]:
        report = ResourceReport(n)
        assert (report.bell_pairs, report.channel_qubits) == (pairs, 2 * pairs)
    with pytest.raises(ValueError):
        ResourceReport(0)


def test_two_qubit_general_rejects_other_widths():
    for n in (1, 3):
        with pytest.raises(ValueError, match="two-qubit"):
            teleport_two_qubit_general(StateVector(n, [1] + [0] * (2 ** n - 1)))
