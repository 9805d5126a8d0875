import numpy as np
import pytest
from conftest import random_state
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twobell.circuit import Gate
from twobell.qstate import (
    PAULI,
    DensityMatrix,
    StateVector,
    apply_superop,
    apply_unitary,
    basis_state,
    checked_rows,
    hermitian_sqrt,
    partial_trace,
    pauli_operator,
    plus_state,
    check_unitary,
    prep_unitary,
    project_rows,
    split_rows,
    superop,
    tensor,
    to_density,
)

SQ2 = 1 / np.sqrt(2)
H = np.array([[1, 1], [1, -1]]) * SQ2
X = np.array([[0, 1], [1, 0]])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])


def test_one_normalization_rule_for_states_and_stacks():
    """A state and every row of a stack pass or fail by the same rule, with
    the same error text; a NaN amplitude fails it."""
    with pytest.raises(ValueError, match=r"^state not normalized: \|psi\| = 1.4142135623730951$"):
        StateVector(1, [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^state not normalized: \|psi\| = nan$"):
        StateVector(1, [np.nan, 0.0])
    rows = np.array([[1, 0], [SQ2, SQ2 * 1j], [0.6, 0.8]], dtype=complex)
    assert checked_rows(rows) is rows
    rows[1, 1] *= 1 + 1e-9
    with pytest.raises(ValueError, match="state not normalized"):
        checked_rows(rows)


def test_bit_ordering_qubit0_is_msb():
    # |01011> on 5 qubits must sit at index 11.
    psi = basis_state(5, 0b01011)
    assert psi.amplitudes[11] == 1.0


def test_pauli_operator_is_one_read_only_array():
    xy = pauli_operator("XY")
    assert pauli_operator("XY") is xy
    assert not xy.flags.writeable
    assert np.array_equal(xy, np.kron(PAULI["X"], PAULI["Y"]))


@pytest.mark.parametrize("dtype", [complex, float])
def test_records_copy_the_arrays_they_are_given(dtype):
    """A record keeps a read-only copy of its array: the caller's array
    stays writeable, and writing to it leaves the record as it was."""
    a, rho, m = np.array([1, 0], dtype), np.array([[1, 0], [0, 0]], dtype), np.array(X, dtype)
    for kept, given in ((StateVector(1, a).amplitudes, a), (DensityMatrix(1, rho).entries, rho),
                        (Gate("CUSTOM", (0,), m).matrix, m)):
        before = kept.copy()
        assert given.flags.writeable and not kept.flags.writeable
        given[0] = 5
        assert np.array_equal(kept, before)


def test_tensor_basis():
    assert np.allclose(tensor(basis_state(1, 0), basis_state(1, 0)).amplitudes, [1, 0, 0, 0])


def test_tensor_plus_plus():
    got = tensor(plus_state(), plus_state()).amplitudes
    assert np.allclose(got, [0.5, 0.5, 0.5, 0.5])


def test_tensor_bell_bell():
    bell = StateVector(2, [SQ2, 0, 0, SQ2])
    got = tensor(bell, bell).amplitudes
    expected = np.zeros(16)
    expected[[0, 3, 12, 15]] = 0.5
    assert np.allclose(got, expected)


def test_apply_unitary_x():
    assert np.allclose(apply_unitary(basis_state(1, 0), X, [0]).amplitudes, [0, 1])


def test_apply_unitary_h_gives_plus():
    assert np.allclose(apply_unitary(basis_state(1, 0), H, [0]).amplitudes, [SQ2, SQ2])


def test_apply_unitary_cnot_compresses_bell_type():
    alpha, beta = 0.6, 0.8j
    psi = StateVector(2, [alpha, 0, 0, beta])
    got = apply_unitary(psi, CNOT, [0, 1])
    assert np.allclose(got.amplitudes, [alpha, 0, beta, 0])  # (a|0>+b|1>) (x) |0>


def test_apply_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        apply_unitary(basis_state(1, 0), np.array([[1, 1], [0, 1]]), [0])


def test_apply_unitary_rejects_bad_targets():
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2, 0), CNOT, [0, 0])
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2, 0), X, [5])


def test_apply_unitary_norm_preserved_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = list(rng.choice(n, size=k, replace=False))
        psi = random_state(n, rng)
        out = apply_unitary(psi, random_unitary(2 ** k, rng), targets)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_tensor_associative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = (random_state(int(rng.integers(1, 3)), rng) for _ in range(3))
        left = tensor(tensor(a, b), c).amplitudes
        right = tensor(a, tensor(b, c)).amplitudes
        assert np.max(np.abs(left - right)) < 1e-12


def test_partial_trace_bell_halves():
    bell = StateVector(2, [SQ2, 0, 0, SQ2])
    for keep in ({0}, {1}):
        red = partial_trace(to_density(bell), keep)
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rho = to_density(tensor(plus_state(), basis_state(1, 0)))
    red = partial_trace(rho, {0})
    assert np.allclose(red.entries, to_density(plus_state()).entries, atol=1e-12)


def test_partial_trace_cluster_marginal():
    # Four equal-weight basis terms whose first two bits are 00,01,10,11.
    amps = np.zeros(32, dtype=complex)
    amps[[0b00000, 0b01011, 0b10100, 0b11111]] = 0.5
    rho = to_density(StateVector(5, amps))
    red = partial_trace(rho, {0, 1})
    assert np.allclose(red.entries, np.eye(4) / 4, atol=1e-12)


def test_partial_trace_of_random_product_recovers_factor():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_state(2, rng)
        b = random_state(1, rng)
        red = partial_trace(to_density(tensor(a, b)), {0, 1})
        assert np.max(np.abs(red.entries - to_density(a).entries)) < 1e-10


def test_partial_trace_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(to_density(plus_state()), set())


def test_hermitian_sqrt_identity():
    assert np.allclose(hermitian_sqrt(np.eye(4)), np.eye(4))


def test_hermitian_sqrt_diagonal():
    assert np.allclose(hermitian_sqrt(np.eye(4) / 4), np.eye(4) / 2)


def test_hermitian_sqrt_projector():
    p = to_density(plus_state()).entries
    assert np.allclose(hermitian_sqrt(p), p, atol=1e-10)


def test_hermitian_sqrt_squares_back_and_stays_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = m @ m.conj().T
        m /= np.trace(m).real
        root = hermitian_sqrt(m)
        assert np.max(np.abs(root @ root - m)) < 1e-8
        assert np.max(np.abs(root - root.conj().T)) < 1e-8
        assert np.min(np.linalg.eigvalsh(root)) > -1e-8


def test_hermitian_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.diag([1.0, -0.1]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2


@pytest.mark.parametrize("entries", [
    [[np.nan, 0], [0, np.nan]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[np.inf, 0], [0, 0.5]],
    [[0.5, complex(0, np.inf)], [complex(0, -np.inf), 0.5]],
], ids=["nan_diagonal", "nan_coherence", "inf_diagonal", "inf_coherence"])
def test_density_matrix_rejects_entries_that_are_not_finite(entries):
    # NaN makes every tolerance comparison false, so each check would pass.
    with pytest.raises(ValueError, match="not finite"):
        DensityMatrix(1, np.array(entries, dtype=complex))


def test_project_qubits():
    bell = StateVector(2, [SQ2, 0, 0, SQ2])
    out = project_rows(bell.amplitudes[None], 2, [0], [[1]])
    assert np.allclose(out, [[0, 1]])


def test_split_product_roundtrip():
    rng = np.random.default_rng(9)
    a = random_state(1, rng)
    b = random_state(2, rng)
    fa, fb = split_rows(tensor(a, b).amplitudes[None], 1)
    # Factors match up to phase.
    assert abs(abs(np.vdot(fa[0], a.amplitudes)) - 1) < 1e-9
    assert abs(abs(np.vdot(fb[0], b.amplitudes)) - 1) < 1e-9


def test_split_product_rejects_entangled():
    bell = StateVector(2, [SQ2, 0, 0, SQ2])
    with pytest.raises(ValueError):
        split_rows(bell.amplitudes[None], 1)


@pytest.mark.parametrize("size", [-1, 0, 2, 3])
def test_split_rows_rejects_a_cut_outside_the_state(size):
    with pytest.raises(ValueError, match="both sides"):
        split_rows(basis_state(2, 0).amplitudes[None], size)


def test_prep_unitary():
    rng = np.random.default_rng(2)
    v = random_state(2, rng).amplitudes
    u = prep_unitary(v)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
    assert np.allclose(u[:, 0], v)



# A component of a near-degenerate input: a tiny +-10^u (u in [-9, -3]), a
# signed zero or an O(1) value.
tiny_or_unit = st.one_of(
    st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from([1.0, -1.0]), st.floats(-9, -3)),
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), st.floats(0.1, 1)),
)


@settings(max_examples=150)
@given(st.sampled_from([2, 4, 32]).flatmap(
    lambda d: arrays(float, (d, 2), elements=tiny_or_unit).filter(np.any)))
def test_prep_unitary_is_unitary_near_degenerate_inputs(parts):
    """Gram-Schmidt keeps only basis residuals well above rounding error, so
    an input with amplitudes near 1e-8 still gives a unitary; its first
    column is the normalized input, bit for bit."""
    v = parts[:, 0] + 1j * parts[:, 1]
    u = prep_unitary(v)
    check_unitary(u, len(v).bit_length() - 1)
    assert u[:, 0].tobytes() == (v / np.linalg.norm(v)).tobytes()

# -- superoperator kernel ---------------------------------------------------------


def embed(k, targets, n):
    """``k`` on ``targets`` (targets[0] the most significant) as a 2^n x 2^n
    matrix: kron(k, I) on the reordered qubits, then permuted back."""
    order = [*targets, *(q for q in range(n) if q not in targets)]
    full = np.kron(k, np.eye(2 ** (n - len(targets))))
    # perm[i]: the index, in kron(k, I)'s qubit order, of natural basis index i.
    perm = [
        sum(((i >> (n - 1 - q)) & 1) << (n - 1 - p) for p, q in enumerate(order))
        for i in range(2 ** n)
    ]
    return full[np.ix_(perm, perm)]


@st.composite
def channel_cases(draw):
    """A random rho on n <= 4 qubits, 1-2 distinct targets in any order and
    1-3 arbitrary complex operators on them."""
    n = draw(st.integers(1, 4))
    targets = draw(st.permutations(range(n)))[: draw(st.integers(1, min(2, n)))]
    entries = st.floats(-1, 1)
    d, dk = 2 ** n, 2 ** len(targets)
    a = draw(arrays(float, (2, d, d), elements=entries))
    a = a[0] + 1j * a[1]
    rho = a @ a.conj().T + 1e-3 * np.eye(d)
    ops = draw(arrays(float, (draw(st.integers(1, 3)), 2, dk, dk), elements=entries))
    return rho / np.trace(rho).real, list(targets), [k[0] + 1j * k[1] for k in ops], n


@settings(max_examples=80)
@given(channel_cases())
def test_apply_superop_matches_kraus_sum_on_full_space(case):
    rho, targets, kraus, n = case
    expected = sum(embed(k, targets, n) @ rho @ embed(k, targets, n).conj().T for k in kraus)
    got = apply_superop(rho, superop(kraus), targets, n)
    assert np.max(np.abs(got - expected)) < 1e-10
