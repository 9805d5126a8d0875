"""Uhlmann fidelity, Pauli-basis state tomography by linear inversion,
and repeated-run fidelity statistics.

Fidelity uses F(sigma, rho) = Tr[sqrt(sqrt(sigma) rho sqrt(sigma))]^2.
Statistics use the sample (n-1) standard deviation; with the population
convention the reference 10-run data set would give ~2.937 instead of
3.096, so the sample convention is the one locked by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qstate import (
    GATE_MATRICES,
    PAULI,
    DensityMatrix,
    StateVector,
    apply_unitary,
    hermitian_sqrt,
    pauli_labels,
    pauli_operator,
    to_density,
)

# Rotation into the measurement basis: measure P by rotating then reading Z.
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_BASIS_ROTATION = {
    "X": GATE_MATRICES["H"],
    "Y": GATE_MATRICES["H"] @ _SDG,
    "Z": PAULI["I"],
}
_TO_Z = str.maketrans("XY", "ZZ")


def settings(num_qubits: int) -> list:
    """The 3^n measurement settings (strings over XYZ)."""
    return ["".join(t) for t in product("XYZ", repeat=num_qubits)]


def fidelity(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Uhlmann fidelity of two density matrices, in [0, 1]."""
    if sigma.dim != rho.dim:
        raise ValueError("dimension mismatch")
    root = hermitian_sqrt(sigma.entries)
    inner = root @ rho.entries @ root
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    # Numerical-noise eigenvalues (~1e-16) would contribute ~1e-8 each
    # after the square root; drop anything negligible relative to the top.
    w[w < max(w.max(), 0.0) * 1e-13] = 0.0
    tr = np.sum(np.sqrt(np.clip(w, 0.0, None)))
    return float(min(1.0, tr ** 2))


def pure_fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """<psi| rho |psi>; the fast path when one state is pure."""
    if psi.dim != rho.dim:
        raise ValueError("dimension mismatch")
    v = psi.amplitudes
    return float(np.real(np.vdot(v, rho.entries @ v)))


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the fidelity of two pure states."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    w = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.sum(np.abs(w)))


def exact_expectations(rho: DensityMatrix) -> dict:
    """<P> for every nontrivial Pauli string."""
    return {
        label: float(np.real(np.trace(rho.entries @ pauli_operator(label))))
        for label in pauli_labels(rho.num_qubits)
    }


def reconstruct(expectations: dict, num_qubits: int) -> DensityMatrix:
    """Linear inversion: rho = 2^-n sum_P <P> P (identity coefficient 1),
    projected to the nearest PSD trace-one matrix by eigenvalue clipping."""
    d = 2 ** num_qubits
    rho = np.eye(d, dtype=complex)
    for label in pauli_labels(num_qubits):
        if label not in expectations:
            raise ValueError(f"missing Pauli expectation {label!r}")
        val = expectations[label]
        if abs(val) > 1 + 1e-6:
            raise ValueError(f"|<{label}>| = {abs(val)} exceeds 1")
        rho = rho + val * pauli_operator(label)
    rho /= d
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    rho = (v * w) @ v.conj().T
    return DensityMatrix(num_qubits, 0.5 * (rho + rho.conj().T))


def sample_setting_counts(psi: StateVector, setting: str, shots: int, rng) -> dict:
    """Apply the per-qubit basis rotations so that a computational
    measurement reads out the requested Pauli setting, then draw shots."""
    for q, axis in enumerate(setting):
        psi = apply_unitary(psi, _BASIS_ROTATION[axis], [q])
    draws = rng.multinomial(shots, np.abs(psi.amplitudes) ** 2)
    n = psi.num_qubits
    return {format(i, f"0{n}b"): int(k) for i, k in enumerate(draws) if k > 0}


def expectations_from_settings(setting_counts: dict, num_qubits: int) -> dict:
    """All nontrivial Pauli expectations from {bits: count} per setting,
    or from exact {bits: probability} (infinite-shot tomography).

    Each setting's estimates are its counts times the labels' parity rows,
    the diagonals of their Z strings; a string with identities averages
    the estimates of every compatible setting.
    """
    names, labels = settings(num_qubits), pauli_labels(num_qubits)
    table = np.zeros((len(names), 2 ** num_qubits))
    for i, setting in enumerate(names):
        if setting not in setting_counts:
            raise ValueError(f"no counts for setting {setting!r}")
        for bits, k in setting_counts[setting].items():
            table[i, int(bits, 2)] = k
    parity = np.array([pauli_operator(l.translate(_TO_Z)).diagonal().real for l in labels])
    estimates = table @ parity.T / table.sum(axis=1, keepdims=True)
    label_axes = np.array([list(l) for l in labels])[:, None]
    compatible = ((label_axes == "I") | (label_axes == np.array([list(s) for s in names]))).all(2)
    return {l: float(np.mean(estimates[compatible[j], j])) for j, l in enumerate(labels)}


def tomography_from_state(
    psi: StateVector, shots: int | None = None, seed: int | None = None
) -> DensityMatrix:
    """Full tomography pipeline against an ideal pure state.

    With ``shots`` None, exact expectations are used; otherwise each of
    the 3^n settings is sampled at ``shots`` shots.
    """
    n = psi.num_qubits
    if shots is None:
        return reconstruct(exact_expectations(to_density(psi)), n)
    rng = np.random.default_rng(seed)
    counts = {s: sample_setting_counts(psi, s, shots, rng) for s in settings(n)}
    return reconstruct(expectations_from_settings(counts, n), n)


@dataclass(frozen=True)
class FidelityStats:
    values: tuple  # percentages
    mean: float
    sample_std: float


def fidelity_stats(values) -> FidelityStats:
    """Mean and Bessel-corrected (n-1) standard deviation of repeated
    fidelity measurements."""
    values = tuple(float(v) for v in values)
    if len(values) < 2:
        raise ValueError("need >= 2 values")
    arr = np.array(values)
    with np.errstate(over="raise"):
        try:
            return FidelityStats(values, float(arr.mean()), float(arr.std(ddof=1)))
        except FloatingPointError:
            raise ValueError("values too large: their mean or spread overflows") from None
