import numpy as np
import pytest
from conftest import random_bell_type, random_pair
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twobell import circuit, protocols
from twobell.circuit import Circuit, run_exact
from twobell.protocols import (
    GeneralizedBellTypeState,
    ResourceReport,
    TeleportBranch,
    compress_ghz_class,
    expand_rows,
    multi_output_teleport,
)
from twobell.qstate import (
    GATE_MATRICES,
    StateVector,
    apply_matrix,
    basis_state,
    partial_trace,
    plus_state,
    prep_unitary,
    project_rows,
    tensor,
    to_density,
)
from twobell.schemes import cluster_channel_teleport, prepare_cluster5, teleport_two_qubit_general
from twobell.tomography import pure_fidelity

SQ2 = 1 / np.sqrt(2)


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
    # Exactly 1/2, so the channel scales the cluster scheme's amplitudes exactly.
    assert set(psi.amplitudes[[0, 11, 20, 31]]) == {0.5}


def test_cluster5_first_two_qubits_maximally_mixed():
    red = partial_trace(to_density(prepare_cluster5()), {0, 1})
    assert np.allclose(red.entries, np.eye(4) / 4, atol=1e-12)


def ebits(amplitudes, qubits):
    """Entanglement entropy (log2) of the listed qubits against the rest,
    from the singular values of the reshaped amplitudes."""
    n = int(np.log2(len(amplitudes)))
    order = [*qubits, *(q for q in range(n) if q not in qubits)]
    m = amplitudes.reshape([2] * n).transpose(order).reshape(2 ** len(qubits), -1)
    p = np.linalg.svd(m, compute_uv=False) ** 2
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def test_cluster5_is_a_bell_pair_and_a_ghz3():
    """The comment's claim: the five-qubit cluster channel is exactly
    Bell(q1, q3) (x) GHZ(q2, q4, q5), the entanglement of two Bell pairs."""
    bell = np.array([1, 0, 0, 1]) * SQ2
    ghz = np.array([1, 0, 0, 0, 0, 0, 0, 1]) * SQ2
    # Axes (q1, q3, q2, q4, q5) to (q1, q2, q3, q4, q5).
    product = np.multiply.outer(bell, ghz).reshape([2] * 5).transpose(0, 2, 1, 3, 4).reshape(-1)
    cluster = prepare_cluster5().amplitudes
    assert np.max(np.abs(cluster - product)) <= 1e-15
    alice, receiver_1, receiver_2 = (ebits(cluster, qs) for qs in ([0, 1], [2], [3, 4]))
    assert alice == pytest.approx(2.0, abs=1e-12)
    assert receiver_1 == pytest.approx(1.0, abs=1e-12)
    assert receiver_2 == pytest.approx(1.0, abs=1e-12)
    assert round(alice) == round(receiver_1 + receiver_2) == ResourceReport(4).bell_pairs


# -- compression ---------------------------------------------------------------


def steps(compression):
    return [(g.kind, g.targets) for g in compression.steps]


def test_compress_ghz_class_eq5():
    s = GeneralizedBellTypeState(2, 0, 0.6, 0.8j)
    assert np.allclose(compress_ghz_class(s).amplitudes, [0.6, 0.8j])
    assert steps(protocols.compression_circuit(s)) == [("CNOT", (0, 1))]


def test_compress_identity_case():
    s = GeneralizedBellTypeState(1, 0, 0.6, 0.8)
    assert np.allclose(compress_ghz_class(s).amplitudes, [0.6, 0.8])
    assert steps(protocols.compression_circuit(s)) == []


def test_compress_x_equals_1():
    # alpha|01> + beta|10>: CNOT then X on qubit 1.
    s = GeneralizedBellTypeState(2, 1, 0.6, 0.8)
    assert np.allclose(compress_ghz_class(s).amplitudes, [0.6, 0.8])
    assert steps(protocols.compression_circuit(s)) == [("CNOT", (0, 1)), ("X", (1,))]


def test_compress_ladder_descends_then_flips_tail_then_head():
    # x = 101: the ladder runs from the last qubit down, the tail qubit
    # left at 1 (qubit 1, since bit 0 is set) flips, then the head.
    compression = protocols.compression_circuit(GeneralizedBellTypeState(3, 0b101, 0.6, 0.8))
    assert steps(compression) == [("CNOT", (0, 2)), ("CNOT", (0, 1)), ("X", (1,)), ("X", (0,))]


def test_expand_with_empty_record_is_identity():
    s = GeneralizedBellTypeState(1, 0, SQ2, SQ2)
    q = compress_ghz_class(s)
    assert steps(protocols.compression_circuit(s)) == []
    assert expand_rows(q.amplitudes[None], s).tobytes() == q.amplitudes.tobytes()


def test_roundtrip_all_x():
    rng = np.random.default_rng(4)
    for n in range(1, 6):
        for x in range(2 ** n):
            a, b = random_pair(rng)
            s = GeneralizedBellTypeState(n, x, a, b)
            back = expand_rows(compress_ghz_class(s).amplitudes[None], s)
            assert back.shape == (1, 2 ** n)
            assert np.max(np.abs(back[0] - s.to_statevector().amplitudes)) < 1e-12


# -- teleportation -------------------------------------------------------------


def assert_all_branches_match(branches, ideal, count=None, prob=None):
    ideal_dm = to_density(ideal)
    if count is not None:
        assert len(branches) == count
    for b in branches:
        if prob is not None:
            assert b.probability == pytest.approx(prob, abs=1e-10)
        assert pure_fidelity(b.output, ideal_dm) == pytest.approx(1.0, abs=1e-10)


def teleport_single(psi):
    """Standard one-qubit teleportation of ``psi``, all four branches."""
    c = protocols.teleport_legs(Circuit(3), [(0, 1, (2,))])
    return protocols.teleport_branches(*protocols.circuit_branches(c, psi), [(0,)])


def test_teleport_single_basis_state():
    assert_all_branches_match(teleport_single(StateVector(1, [1, 0])),
                              StateVector(1, [1, 0]), count=4, prob=0.25)


def test_teleport_single_plus():
    assert_all_branches_match(teleport_single(plus_state()), plus_state(),
                              count=4, prob=0.25)


def test_teleport_single_generic():
    psi = StateVector(1, [0.6, 0.8j])
    assert_all_branches_match(teleport_single(psi), psi, count=4, prob=0.25)


def test_correction_table_is_the_unique_fix():
    # Re-run the teleport circuit without corrections and check that only
    # the table's Pauli recovers a generic input for each outcome.
    psi = StateVector(1, [0.6, 0.8])
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
    ideal = to_density(psi)
    for e in dist.entries:
        # The table's Paulis for these bits, named as a product (last applied first).
        corrections = protocols._corrections(e.bits[0], e.bits[1], (2,))
        applied = [pauli for pauli, _, bit in corrections if bit == "1"]
        table = "".join(reversed(applied)) or "I"
        bob = project_rows(e.state.amplitudes[None], 3, [0, 1], [[int(e.bits[0]), int(e.bits[1])]])[0]
        for name, mat in paulis.items():
            fixed = StateVector(1, (mat @ bob) / np.linalg.norm(mat @ bob))
            fid = pure_fidelity(fixed, ideal)
            if name == table:
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


# -- the stacked protocols against the per-branch ones --------------------------
# Reference: the protocols as they ran before they took the walk's stack, one
# projection, product split, expansion walk and np.outer per branch, each
# intermediate state a checked ``StateVector``, and every input and the
# cluster channel prepared by a ``prep_unitary`` gate from |0...0>.  The
# legs and the general scheme now start their walks from their inputs, and
# the cluster scheme prepares its channel by ``_cluster5``'s gates.


def per_branch_project(state, assignments):
    n = state.num_qubits
    idx = [slice(None)] * n
    for q, b in assignments.items():
        idx[q] = b
    sub = state.amplitudes.reshape([2] * n)[tuple(idx)].reshape(-1)
    return StateVector(n - len(assignments), sub / np.linalg.norm(sub))


def per_branch_split(state, size):
    """The factors of ``state`` across the cut after its first ``size`` qubits."""
    m = state.amplitudes.reshape(2 ** size, -1)
    a = m[:, int(np.argmax(np.linalg.norm(m, axis=0)))]
    a = a / np.linalg.norm(a)
    row = int(np.argmax(np.abs(a)))
    b = m[row, :] / a[row]
    assert np.max(np.abs(m - np.outer(a, b / np.linalg.norm(b)))) <= 1e-8
    return StateVector(size, a), StateVector(state.num_qubits - size, b / np.linalg.norm(b))


def per_branch_tensor(a, b):
    return StateVector(a.num_qubits + b.num_qubits, np.outer(a.amplitudes, b.amplitudes).reshape(-1))


def per_branch_compress(s):
    compression = protocols.compression_circuit(s)
    psi = run_exact(compression, s.to_statevector()).entries[0].state
    return (psi if s.n == 1 else per_branch_project(psi, {q: 0 for q in range(1, s.n)})), compression


def per_branch_expand(q, compression):
    n = compression.num_qubits
    psi = q if n == 1 else per_branch_tensor(q, basis_state(n - 1, 0))
    return run_exact(Circuit(n, reversed(compression.steps)), psi).entries[0].state


def per_branch_branches(c, fixed=None):
    for e in run_exact(c).entries:
        assign = {q: int(b) for q, b in zip(c.measured.values(), e.bits)}
        yield e.bits, e.probability, per_branch_project(e.state, {**assign, **(fixed or {})})


def per_branch_multi_output(chi_a, chi_b):
    legs = []
    for chi in (chi_a, chi_b):
        q, compression = per_branch_compress(chi)
        c = protocols.teleport_legs(Circuit(3).custom(prep_unitary(q.amplitudes), [0]), [(0, 1, (2,))])
        legs.append([(bits, p, per_branch_expand(out, compression))
                     for bits, p, out in per_branch_branches(c)])
    qubit_sets = (range(chi_a.n), range(chi_b.n))
    branches = [TeleportBranch(ba + bb, protocols._reported(ba + bb, qubit_sets), pa * pb,
                               per_branch_tensor(out_a, out_b))
                for ba, pa, out_a in legs[0] for bb, pb, out_b in legs[1]]
    return sorted(branches, key=lambda b: b.outcome_bits)


def per_branch_two_qubit_general(psi):
    c = Circuit(6).custom(prep_unitary(psi.amplitudes), [0, 1])
    protocols.teleport_legs(c, [(0, 2, (3,)), (1, 4, (5,))])
    return [TeleportBranch(bits, protocols._reported(bits, [(0,), (1,)]), p, out)
            for bits, p, out in per_branch_branches(c)]


def per_branch_cluster(chi_a, chi_b):
    comp_a, comp_b = protocols.compression_circuit(chi_a), protocols.compression_circuit(chi_b)
    c = Circuit(8)
    c.custom(prep_unitary(chi_a.to_statevector().amplitudes), [0])
    c.custom(prep_unitary(chi_b.to_statevector().amplitudes), [1, 2])
    c.custom(prep_unitary(prepare_cluster5().amplitudes), [3, 4, 5, 6, 7])
    for g in comp_a.steps:
        c.add(g.on((0,)))
    for g in comp_b.steps:
        c.add(g.on((1, 2)))
    protocols.teleport_legs(c, [(0, 3, (5,)), (1, 4, (6, 7))], shared=True)
    branches = []
    for bits, p, joint in per_branch_branches(c, fixed={2: 0}):
        bob1, bob2 = per_branch_split(joint, 1)
        out_a = per_branch_expand(bob1, comp_a)
        pair = StateVector(2, apply_matrix(bob2.amplitudes, GATE_MATRICES["CNOT"], [0, 1], 2))
        out_b = per_branch_expand(per_branch_project(pair, {1: 0}), comp_b)
        branches.append(TeleportBranch(bits, protocols._reported(bits, [(0,), (0, 1)]), p,
                                       per_branch_tensor(out_a, out_b)))
    return branches


# A component: any float in [-1, 1], or a signed zero.
components = st.one_of(st.floats(-1, 1), st.sampled_from([0.0, -0.0]))
# A tiny +-10^u: beside O(1) components, u in [-9, -3] makes an input
# near-degenerate, and u in [-320, -309] is subnormal, where the products
# with the channel's 0.5 amplitudes round.
tiny = st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from([1.0, -1.0]),
                 st.floats(-9, -3) | st.floats(-320, -309))


def unit_complex(draw, count, zero_from=None):
    """``count`` complex numbers of total norm 1 (signs of zero kept); now
    and then one component is tiny; those from index ``zero_from`` on are
    signed zeros."""
    parts = [draw(components) for _ in range(2 * count)]
    if draw(st.booleans()):
        parts[draw(st.integers(0, 2 * count - 1))] = draw(tiny)
    if zero_from is not None:
        parts[2 * zero_from:] = [draw(st.sampled_from([0.0, -0.0])) for _ in parts[2 * zero_from:]]
    norm = float(np.sqrt(sum(x * x for x in parts)))
    assume(norm > 0.1)
    return [complex(parts[2 * i] / norm, parts[2 * i + 1] / norm) for i in range(count)]


@st.composite
def bell_type_states(draw, n):
    """alpha|x> + beta|x-bar> with random x and complex alpha, beta; beta = 0 now and then."""
    alpha, beta = unit_complex(draw, 2, zero_from=1 if draw(st.booleans()) else None)
    return GeneralizedBellTypeState(n, draw(st.integers(0, 2 ** n - 1)), alpha, beta)


def assert_same_branches(run, reference):
    """``run()`` returns ``reference()``'s branches bit for bit.  Both run on
    every drawn input, near-degenerate ones too: ``prep_unitary`` completes
    its basis from residuals well above rounding error only, and its first
    column is the normalized input that the schemes start from."""
    ref, got = reference(), run()
    assert [b.outcome_bits for b in got] == [b.outcome_bits for b in ref]
    for g, r in zip(got, ref):
        assert g.probability == r.probability
        assert g.corrections == r.corrections
        assert g.output.num_qubits == r.output.num_qubits
        assert g.output.amplitudes.tobytes() == r.output.amplitudes.tobytes()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 4), data=st.data())
def test_stacked_two_bell_equals_per_branch_reference_bit_for_bit(m, data):
    chi_a, chi_b = data.draw(bell_type_states(m)), data.draw(bell_type_states(m + 1))
    assert_same_branches(lambda: multi_output_teleport(chi_a, chi_b)[0],
                         lambda: per_branch_multi_output(chi_a, chi_b))


@settings(max_examples=60, deadline=None)
@given(bell_type_states(1), bell_type_states(2))
# A subnormal amplitude: scaled by the channel's 1/2 before the inputs'
# gates rather than after, as a start state would, its output rounds apart.
@example(GeneralizedBellTypeState(1, 0, 1e-312, 1j),
         GeneralizedBellTypeState(2, 0, 0.9999980000060001 + 0.0019999960000120004j, 0))
def test_stacked_cluster5_equals_per_branch_reference_bit_for_bit(chi_a, chi_b):
    assert_same_branches(lambda: cluster_channel_teleport(chi_a, chi_b),
                         lambda: per_branch_cluster(chi_a, chi_b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_two_qubit_general_equals_per_branch_reference_bit_for_bit(data):
    psi = StateVector(2, unit_complex(data.draw, 4))
    assert_same_branches(lambda: teleport_two_qubit_general(psi)[0],
                         lambda: per_branch_two_qubit_general(psi))


# Signed zeros and +-0.6 in every real and imaginary part of alpha and beta,
# normalized: 240 inputs, each sign of zero in every place.
_GRID = [complex(re, im) for re in (0.0, -0.0, 0.6, -0.6) for im in (0.0, -0.0, 0.6, -0.6)]
SIGNED_ZERO_GRID = [(a / np.sqrt(abs(a) ** 2 + abs(b) ** 2), b / np.sqrt(abs(a) ** 2 + abs(b) ** 2))
                    for a in _GRID for b in _GRID if a or b]


def test_signed_zero_grid_equals_per_branch_reference_bit_for_bit():
    for i, (alpha, beta) in enumerate(SIGNED_ZERO_GRID):
        chi_a = GeneralizedBellTypeState(1, i % 2, alpha, beta)
        chi_b = GeneralizedBellTypeState(2, i % 4, beta, alpha)
        psi = StateVector(2, [alpha, beta, -0.0, 0.0])
        assert_same_branches(lambda: multi_output_teleport(chi_a, chi_b)[0],
                             lambda: per_branch_multi_output(chi_a, chi_b))
        assert_same_branches(lambda: cluster_channel_teleport(chi_a, chi_b),
                             lambda: per_branch_cluster(chi_a, chi_b))
        assert_same_branches(lambda: teleport_two_qubit_general(psi)[0],
                             lambda: per_branch_two_qubit_general(psi))


def test_protocols_walk_once_per_leg_and_per_expansion(monkeypatch):
    """(qubits, initial rows) of each walk: every leg's branches are expanded
    as one stack, not one walk per branch."""
    walks = []
    real = circuit.walk

    def counted(steps, states, *rest):
        walks.append((states.shape[1].bit_length() - 1, len(states)))
        return real(steps, states, *rest)

    monkeypatch.setattr(circuit, "walk", counted)
    chi_a = GeneralizedBellTypeState(1, 1, 0.6, 0.8j)
    chi_b = GeneralizedBellTypeState(2, 2, SQ2, -SQ2 * 1j)
    multi_output_teleport(chi_a, chi_b)
    # Per leg: its compression, its 3-qubit teleportation, one expansion of 4 rows.
    assert walks == [(1, 1), (3, 1), (1, 4), (2, 1), (3, 1), (2, 4)]
    walks.clear()
    cluster_channel_teleport(chi_a, chi_b)
    # The 8-qubit circuit, then one expansion of 16 rows per receiver; the
    # compressions run inside it, so their qubits are never computed alone.
    assert walks == [(8, 1), (1, 16), (2, 16)]
