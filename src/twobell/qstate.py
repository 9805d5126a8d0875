"""Pure- and mixed-state primitives: state vectors, density matrices, and
the linear-algebra operations the rest of the library is built on.

Bit ordering convention
-----------------------
Qubit 0 is the *most significant* bit of the basis index, so the ket
|01011> on five qubits sits at index 0b01011 = 11.  All modules in this
package share this convention.
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_FLOOR = -1e-9

# The one table of Pauli and gate matrices; every module reads these.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
for _m in (*PAULI.values(), *GATE_MATRICES.values()):
    _m.setflags(write=False)


def pauli_labels(num_qubits: int) -> list:
    """The nontrivial Pauli strings over IXYZ, in product order."""
    return ["".join(t) for t in product("IXYZ", repeat=num_qubits) if set(t) != {"I"}]


@cache
def pauli_operator(label: str) -> np.ndarray:
    """The Pauli string ``label`` as a read-only matrix, built once per process."""
    m = np.array([[1]], dtype=complex)
    for ch in label:
        m = np.kron(m, PAULI[ch])
    m.setflags(write=False)
    return m


class StateVector:
    """Normalized amplitude vector over ``num_qubits`` qubits, a read-only
    copy of the amplitudes it is given."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2 ** num_qubits:
            raise ValueError(f"expected {2 ** num_qubits} amplitudes, got {amps.shape[0]}")
        checked_rows(amps).setflags(write=False)
        self.num_qubits, self.amplitudes = num_qubits, amps


class DensityMatrix:
    """Hermitian, PSD, trace-one matrix over ``num_qubits`` qubits, a
    read-only copy of the entries it is given."""

    __slots__ = ("num_qubits", "entries")

    def __init__(self, num_qubits: int, entries):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        d = 2 ** num_qubits
        m = np.array(entries, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
        if not np.isfinite(m).all():  # NaN would pass every comparison below
            raise ValueError("matrix has an entry that is not finite")
        if np.max(np.abs(m - m.conj().T)) > HERM_ATOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > NORM_ATOL:
            raise ValueError(f"trace is {np.trace(m)}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < EIG_FLOOR:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        m.setflags(write=False)
        self.num_qubits, self.entries = num_qubits, m


def checked_rows(a: np.ndarray) -> np.ndarray:
    """``a``, once each of its rows (the last axis) has norm 1 within
    ``NORM_ATOL``: the one normalization rule of a state and of a stack of
    states.  A row's norm is the square root of its |amp|^2 sum, so the rule
    bounds the sum itself (a NaN fails)."""
    lo, hi = (1.0 - NORM_ATOL) ** 2, (1.0 + NORM_ATOL) ** 2
    for total in np.vecdot(a, a).real.reshape(-1).tolist():
        if not lo <= total <= hi:
            raise ValueError(f"state not normalized: |psi| = {np.sqrt(total)}")
    return a


def basis_state(num_qubits: int, index: int) -> StateVector:
    """|index> in the computational basis (qubit 0 = MSB of index)."""
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def plus_state() -> StateVector:
    return StateVector(1, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of each row of ``a`` with the matching row of
    ``b`` (stacks that broadcast; a's qubits lead): one ``np.multiply``, the
    ufunc ``np.outer`` calls, so each row's bits are np.outer's."""
    out = np.multiply(a[..., :, None], b[..., None, :])
    return out.reshape(*out.shape[:-2], -1)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the leading (most significant) ones."""
    return StateVector(a.num_qubits + b.num_qubits, kron_rows(a.amplitudes, b.amplitudes))


def to_density(psi: StateVector) -> DensityMatrix:
    amps = psi.amplitudes
    return DensityMatrix(psi.num_qubits, np.outer(amps, amps.conj()))


def check_qubits(qubits, n: int):
    """``qubits`` (a sequence), once each indexes a qubit of an n-qubit
    state: the one qubit-index rule of circuits and states."""
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
    return qubits


def check_distinct(qubits):
    """``qubits`` (a sequence), once no qubit repeats: the one
    distinct-targets rule of gates and states."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate target qubits: {list(qubits)}")
    return qubits


def check_unitary(u, k):
    """``u`` as a complex array, once it is a 2^k x 2^k unitary within 1e-10:
    the one unitary rule of gates and states."""
    u = np.asarray(u, dtype=complex)
    d = 2 ** k
    if u.shape != (d, d):
        raise ValueError(f"matrix shape {u.shape} does not match {k} target qubit(s)")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    return u


def apply_unitary(state: StateVector, u, targets) -> StateVector:
    """Apply a k-qubit unitary to the listed target qubits of a pure state,
    checking targets and unitary first and the state once, as it is built.
    targets[0] addresses the most significant index bit of ``u``."""
    n = state.num_qubits
    targets = check_qubits(check_distinct(list(targets)), n)
    return StateVector(n, apply_matrix(state.amplitudes, check_unitary(u, len(targets)), targets, n))


def superop(kraus) -> np.ndarray:
    """Superoperator S = sum_i K_i (x) conj(K_i) of a Kraus set: S acts on
    the row-major flattening of rho, vec(K rho K^dagger) = (K (x) conj(K)) vec(rho)."""
    k = np.asarray(kraus)
    return np.einsum("kij,kab->iajb", k, k.conj()).reshape(k.shape[1] ** 2, -1)


@cache
def _axes(targets: tuple, n: int):
    """The axis order of a stack of n-axis tensors with ``targets`` first; and its inverse."""
    order = [0, *(1 + q for q in targets), *(1 + a for a in range(n) if a not in targets)]
    return tuple(order), tuple(np.argsort(order))


def apply_matrix(a: np.ndarray, m: np.ndarray, targets, n: int) -> np.ndarray:
    """Apply ``m`` to the listed axes of ``a``, read as a stack of n-axis
    tensors of 2s (no validation): target axes to the front, one stacked
    matmul (each tensor's the same as alone), axes back.  The one kernel of both engines."""
    order, inverse = _axes(tuple(targets), n)
    t = a.reshape(-1, *[2] * n).transpose(order)
    t = (m @ t.reshape(len(t), len(m), 2 ** n // len(m))).reshape(t.shape)
    return t.transpose(inverse).reshape(a.shape)


def apply_superop(rho: np.ndarray, s: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Apply a k-qubit channel, given by its 4^k x 4^k superoperator, to
    the listed target qubits of a raw 2^n x 2^n rho (no validation): one
    ``apply_matrix`` on the targets' row and column axes."""
    return apply_matrix(rho, s, [*targets, *(num_qubits + q for q in targets)], 2 * num_qubits)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in ``keep``.

    Kept qubits appear in the result in ascending original order.
    """
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    n = rho.num_qubits
    check_qubits(keep, n)
    t = rho.entries.reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    # Trace the highest axes first so lower axis numbers stay valid.
    cur_n = n
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=cur_n + q)
        cur_n -= 1
    d = 2 ** len(keep)
    return DensityMatrix(len(keep), t.reshape(d, d))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, one call per row: a norm reduced along
    an axis sums in another order and may differ in the last bit."""
    return np.array([np.linalg.norm(r) for r in rows])


def project_rows(states: np.ndarray, n: int, qubits, values) -> np.ndarray:
    """Slice row i of a (rows, 2^n) stack at ``qubits[j]`` reading
    ``values[i][j]`` (0/1).  Returns each row's remaining qubits (ascending
    order) renormalized, as one checked stack; raises if any slice has
    (numerically) zero weight."""
    idx = [np.arange(len(states)), *[slice(None)] * n]
    for q, v in zip(check_qubits(qubits, n), np.array(values, dtype=int).reshape(len(states), -1).T):
        idx[1 + q] = v
    sub = states.reshape(-1, *[2] * n)[tuple(idx)].reshape(len(states), -1)
    norms = _row_norms(sub)
    if np.min(norms) < 1e-9:
        raise ValueError("projection has zero weight")
    return checked_rows(sub / norms[:, None])


def split_rows(states: np.ndarray, size: int) -> tuple:
    """Split every row of a stack of product states after its first ``size``
    qubits, one pass for all rows: the two checked factor stacks.  Raises
    ValueError if any row is not (numerically) a product across the cut.
    Factor global phases are not meaningful."""
    if not 2 <= 2 ** size < states.shape[-1]:
        raise ValueError("size must leave qubits on both sides of the cut")
    rows = np.arange(len(states))
    m = states.reshape(len(states), 2 ** size, -1)
    a = m[rows, :, np.argmax(np.linalg.norm(m, axis=1), axis=1)]
    a = a / _row_norms(a)[:, None]
    peak = np.argmax(np.abs(a), axis=1)
    b = m[rows, peak, :] / a[rows, peak][:, None]
    b = b / _row_norms(b)[:, None]
    if np.max(np.abs(m - kron_rows(a, b).reshape(m.shape))) > 1e-8:
        raise ValueError("state is not a product across the requested cut")
    return checked_rows(a), checked_rows(b)


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-9, 0) are clipped to zero; anything more negative
    signals a corrupted matrix and raises.
    """
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(m)
    if np.min(w) < EIG_FLOOR:
        raise ValueError(f"eigenvalue {np.min(w)} below {EIG_FLOOR}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def prep_unitary(target: np.ndarray) -> np.ndarray:
    """A unitary whose first column is ``target`` (maps |0...0> to it), by
    Gram-Schmidt against the standard basis; deterministic.  A residual of
    norm <= 1e-4 is rounding error and skipped: a span of k < d would leave
    sum dist(e_i, span)^2 = d - k >= 1, but that sum is <= d * 1e-8 < 1."""
    v = np.asarray(target, dtype=complex).reshape(-1)
    d = v.shape[0]
    v = v / np.linalg.norm(v)
    cols = [v]
    for i in range(d):
        e = np.zeros(d, dtype=complex)
        e[i] = 1.0
        for c in cols:
            e = e - c * np.vdot(c, e)
        norm = np.linalg.norm(e)
        if norm > 1e-4:
            cols.append(e / norm)
        if len(cols) == d:
            break
    return np.column_stack(cols)
