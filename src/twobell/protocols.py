"""Multi-output teleportation over two Bell pairs, the generalized-Bell-type
compression step, and resource accounting.  The cluster baseline and the
general two-qubit scheme are in ``twobell.schemes``, built from the same
leg builder; the paper's experiment circuit is in ``twobell.experiments``.

Inputs are ``GeneralizedBellTypeState`` values.  ``ResourceReport``
derives its Bell-pair and channel-qubit counts from n unknown coefficients.

Every scheme post-processes its walk's stack of branches (one amplitude
row each) with one array operation and one check per step for all rows,
and builds a ``StateVector`` for each returned branch only.  An input's
compression is one circuit, ``compression_circuit``: ``compress_ghz_class``
runs it and returns the compressed qubit, and ``expand_rows`` takes the
input state and runs its compression backwards over a stack.

Correction convention: a Bell measurement (CNOT then H, reading bits
(b1, b2)) maps outcomes to receiver Paulis 00 -> I, 01 -> X, 10 -> Z,
11 -> Z.X (X applied first).  ``_corrections`` is that one table: the leg
builder ``teleport_legs`` emits it as controlled gates, and each
``TeleportBranch.corrections`` reports it for the branch's bits.
"""

from __future__ import annotations

from math import ceil, log2
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, exact_walk, run_exact
from .qstate import (
    NORM_ATOL,
    StateVector,
    basis_state,
    checked_rows,
    kron_rows,
    project_rows,
)


class GeneralizedBellTypeState:
    """Symbolic alpha|x> + beta|x-bar> on n qubits (x-bar = bitwise complement)."""

    __slots__ = ("n", "x", "alpha", "beta")

    def __init__(self, n: int, x: int, alpha: complex, beta: complex):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= x < 2 ** n:
            raise ValueError(f"x={x} out of range for n={n}")
        if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > NORM_ATOL:
            raise ValueError("|alpha|^2 + |beta|^2 must be 1")
        self.n, self.x, self.alpha, self.beta = n, x, alpha, beta

    @property
    def x_bar(self) -> int:
        return (2 ** self.n - 1) ^ self.x

    def to_statevector(self) -> StateVector:
        amps = np.zeros(2 ** self.n, dtype=complex)
        amps[self.x] = self.alpha
        amps[self.x_bar] = self.beta
        return StateVector(self.n, amps)


class TeleportBranch(NamedTuple):
    outcome_bits: str
    corrections: tuple  # of (receiver, pauli, qubit)
    probability: float
    output: StateVector


class ResourceReport:
    """ceil(log2 n) Bell pairs for n unknown coefficients, two qubits each."""

    __slots__ = ("unknown_coefficients",)

    def __init__(self, unknown_coefficients: int):
        if unknown_coefficients < 1:
            raise ValueError("need at least one coefficient")
        self.unknown_coefficients = unknown_coefficients

    def __eq__(self, other):
        if not isinstance(other, ResourceReport):
            return NotImplemented
        return self.unknown_coefficients == other.unknown_coefficients

    @property
    def bell_pairs(self) -> int:
        return ceil(log2(self.unknown_coefficients))

    @property
    def channel_qubits(self) -> int:
        return 2 * self.bell_pairs


# -- compression of generalized Bell-type states -----------------------------


def compression_circuit(s: GeneralizedBellTypeState) -> Circuit:
    """The compression of ``s`` as one circuit: a CNOT ladder from qubit 0
    to qubits n-1 down to 1, an X on each tail qubit left at 1
    (descending), and an X on the head if bit 0 of x is set."""
    n = s.n
    bits = [(s.x >> (n - 1 - q)) & 1 for q in range(n)]
    compression = Circuit(n)
    for q in range(n - 1, 0, -1):
        compression.cnot(0, q)
    for q in range(n - 1, 0, -1):
        if bits[q] ^ bits[0]:
            compression.x(q)
    if bits[0]:
        compression.x(0)
    return compression


def compress_ghz_class(s: GeneralizedBellTypeState) -> StateVector:
    """Reduce alpha|x> + beta|x-bar> to (alpha|0> + beta|1>) on one qubit
    by running ``compression_circuit(s)``: the compressed qubit."""
    psi = run_exact(compression_circuit(s), s.to_statevector()).entries[0].state
    if s.n == 1:
        return psi
    rows = project_rows(psi.amplitudes[None], s.n, range(1, s.n), [[0] * (s.n - 1)])
    return StateVector(1, rows[0])


def expand_rows(rows: np.ndarray, s: GeneralizedBellTypeState) -> np.ndarray:
    """Invert ``compress_ghz_class(s)`` on a stack of teleported single
    qubits: each row with fresh |0> ancillas, then one walk of
    ``compression_circuit(s)`` run backwards over all rows; a checked stack."""
    if s.n > 1:
        rows = checked_rows(kron_rows(rows, basis_state(s.n - 1, 0).amplitudes))
    # X and CNOT are their own inverses, so the reversed steps undo them.
    return checked_rows(exact_walk(Circuit(s.n, reversed(compression_circuit(s).steps)), rows)[1])


# -- teleportation ------------------------------------------------------------

def circuit_branches(c: Circuit, psi: StateVector | None = None, fixed=None):
    """``c``'s branches in bit order as (bits, probabilities, outputs): its
    walk from psi / |psi| (x) |0...0> (``prep_unitary(psi)``'s first column;
    default |0...0>) sliced, row by row, at each measured qubit's value and
    at ``fixed``'s values (qubit -> 0/1), one checked stack of the rest."""
    start = None
    if psi is not None:
        ancillas = basis_state(c.num_qubits - psi.num_qubits, 0).amplitudes
        start = kron_rows(psi.amplitudes / np.linalg.norm(psi.amplitudes), ancillas)[None]
    rows, states = exact_walk(c, start)
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    bits = [rows[i][0] for i in order]
    fixed = fixed or {}
    values = [[*map(int, b), *fixed.values()] for b in bits]
    outputs = project_rows(checked_rows(states[order]), c.num_qubits,
                           [*c.measured.values(), *fixed], values)
    return bits, [rows[i][1] for i in order], outputs


def teleport_branches(bits, probabilities, outputs, qubit_sets) -> list:
    """One ``TeleportBranch`` per row of the checked stack ``outputs``."""
    n = outputs.shape[1].bit_length() - 1
    return [TeleportBranch(b, _reported(b, qubit_sets), p, StateVector(n, out))
            for b, p, out in zip(bits, probabilities, outputs)]


def _corrections(z, x, qubits) -> tuple:
    """One leg's corrections as (pauli, qubit, bit), in order: X on every
    receiver qubit if bit x reads 1, then Z on the first if bit z does.
    The bits are names in a circuit and values ("0"/"1") in a report."""
    return (*(("X", q, x) for q in qubits), ("Z", qubits[0], z))


def _reported(bits: str, qubit_sets) -> tuple:
    """(receiver, pauli, qubit) of each correction that a branch with outcome
    ``bits`` applies; receiver i + 1 reads bits 2i, 2i + 1 on ``qubit_sets[i]``."""
    return tuple((r, pauli, q) for r, qubits in enumerate(qubit_sets, start=1)
                 for pauli, q, bit in _corrections(*bits[2 * r - 2:2 * r], qubits) if bit == "1")


def teleport_legs(c: Circuit, legs, shared: bool = False) -> Circuit:
    """Append one standard teleportation per leg (source, sender, receivers):
    a Bell pair (sender, receivers[0]) per leg unless the channel is
    ``shared``, then each leg's Bell measurement of (source, sender) into
    bits b1 .. b2k, then each leg's ``_corrections`` as controlled gates."""
    bits = [(f"b{2 * i + 1}", f"b{2 * i + 2}") for i in range(len(legs))]
    if not shared:
        for _, sender, receivers in legs:
            c.bell_pair(sender, receivers[0])
    for (source, sender, _), (z, x) in zip(legs, bits):
        c.bell_measure(source, sender, z, x)
    for (_, _, receivers), (z, x) in zip(legs, bits):
        for pauli, q, bit in _corrections(z, x, receivers):
            c.c_if(pauli, (q,), bit)
    return c


def multi_output_teleport(
    chi_a: GeneralizedBellTypeState, chi_b: GeneralizedBellTypeState, compressed=None
):
    """Teleport an m-qubit and an (m+1)-qubit generalized Bell-type state
    to two receivers over exactly two Bell pairs.

    Both inputs are compressed to single qubits (``compressed``, their
    ``compress_ghz_class`` qubits, spares a caller that has them making
    them again), sent through independent standard teleportations, and
    re-expanded at the receivers, each leg's four branches as one stack.
    Returns (branches in bit order, resource report); the joint output of
    every branch is chi_a (x) chi_b.
    """
    if chi_b.n != chi_a.n + 1:
        raise ValueError("chi_b must have exactly one more qubit than chi_a")
    teleport = teleport_legs(Circuit(3), [(0, 1, (2,))])  # 0 = input, (1, 2) = Bell pair
    legs = []
    for chi, q in zip((chi_a, chi_b), compressed or map(compress_ghz_class, (chi_a, chi_b))):
        if q.num_qubits != 1:
            raise ValueError("one-qubit teleportation takes a single-qubit state")
        bits, probabilities, outputs = circuit_branches(teleport, q)
        legs.append((bits, probabilities, expand_rows(outputs, chi)))
    (bits_a, p_a, out_a), (bits_b, p_b, out_b) = legs
    # Each leg is in bit order, so leg a major, leg b minor is too.
    outputs = kron_rows(out_a[:, None], out_b[None]).reshape(len(out_a) * len(out_b), -1)
    bits = [ba + bb for ba in bits_a for bb in bits_b]
    probabilities = [pa * pb for pa in p_a for pb in p_b]
    qubit_sets = (range(chi_a.n), range(chi_b.n))
    return teleport_branches(bits, probabilities, outputs, qubit_sets), ResourceReport(4)


def __getattr__(name):
    """The schemes of ``twobell.schemes``, loaded on first use;
    ``perfbench/spans.py`` traces them under this module's name."""
    if name in ("cluster_channel_teleport", "teleport_two_qubit_general"):
        from . import schemes
        return getattr(schemes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
