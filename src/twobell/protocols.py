"""The two channels the comment compares: multi-output teleportation over
two Bell pairs and Yu et al.'s five-qubit-cluster baseline, with the
general two-qubit scheme, the generalized-Bell-type compression step and
resource accounting.  All three schemes are built from one leg builder;
the paper's experiment circuit is in ``twobell.experiments``.

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
    GATE_MATRICES,
    NORM_ATOL,
    StateVector,
    apply_matrix,
    basis_state,
    checked_rows,
    kron_rows,
    prep_unitary,
    project_rows,
    split_rows,
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


# -- the cluster baseline and the general two-qubit scheme --------------------

CLUSTER_QUBITS = 5  # the cluster baseline's channel; two Bell pairs are 4 qubits


def _cluster5(c: Circuit, q) -> Circuit:
    """Append the cluster channel's preparation on qubits q: Bell(q1, q3) (x)
    GHZ(q2, q4, q5), H (x) H as one gate of entries +-1/2, exact."""
    c.custom(np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2, [q[0], q[1]])
    return c.cnot(q[0], q[2]).cnot(q[1], q[3]).cnot(q[1], q[4])


def prepare_cluster5() -> StateVector:
    """The five-qubit cluster channel (|00000>+|01011>+|10100>+|11111>)/2."""
    return run_exact(_cluster5(Circuit(CLUSTER_QUBITS), range(CLUSTER_QUBITS))).entries[0].state


def teleport_two_qubit_general(psi: StateVector):
    """Teleport a general (possibly entangled) two-qubit state with two
    Bell pairs: one standard teleportation per qubit.

    Qubit layout: (0, 1) input pair, (2, 3) and (4, 5) Bell pairs;
    the receiver side holds 3 and 5.
    """
    if psi.num_qubits != 2:
        raise ValueError("teleport_two_qubit_general takes a two-qubit state")
    c = teleport_legs(Circuit(6), [(0, 2, (3,)), (1, 4, (5,))])
    # Outputs: receiver qubits (3, 5).
    return teleport_branches(*circuit_branches(c, psi), [(0,), (1,)]), ResourceReport(4)


def cluster_channel_teleport(
    chi_a: GeneralizedBellTypeState, chi_b: GeneralizedBellTypeState
):
    """Baseline multi-output teleportation over the five-qubit cluster
    channel, for the m=1 case (chi_a on 1 qubit, chi_b on 2).

    The channel is exactly the five-qubit cluster state; its qubit 3 goes
    to receiver 1 and qubits 4, 5 to receiver 2.  Alice compresses her
    inputs locally, which turns her entangled-basis measurement into two
    Bell measurements; every branch then admits local Pauli corrections,
    and the receivers' steps run once over all branches' stack.
    """
    if chi_a.n != 1 or chi_b.n != 2:
        raise ValueError("m: the cluster baseline is defined for m = 1")
    # Register: 0 = chi_a, (1, 2) = chi_b, 3..7 = cluster qubits 1..5, all
    # made by gates: a start state would round subnormal amplitudes apart.
    c = Circuit(8)
    c.custom(prep_unitary(chi_a.to_statevector().amplitudes), [0])
    c.custom(prep_unitary(chi_b.to_statevector().amplitudes), [1, 2])
    _cluster5(c, [3, 4, 5, 6, 7])
    # Alice's local compressions.
    for g in compression_circuit(chi_a).steps:
        c.add(g.on((0,)))
    for g in compression_circuit(chi_b).steps:
        c.add(g.on((1, 2)))
    # Bell measurements against the cluster qubits Alice keeps.  Receiver 1
    # is on cluster qubit 3; receiver 2 on the (4, 5) code pair, where
    # logical X is X(x)X and logical Z acts on either qubit.
    teleport_legs(c, [(0, 3, (5,)), (1, 4, (6, 7))], shared=True)
    # Qubit 2 holds chi_b's compressed ancilla, back in |0>.
    bits, probabilities, joint = circuit_branches(c, fixed={2: 0})  # joint: qubits (5, 6, 7)
    bob1, bob2 = split_rows(joint, 1)
    # Receiver 2 holds alpha|00> + beta|11>; a final CNOT frees the
    # compressed qubit, then the compression run backwards rebuilds chi_b.
    pair = apply_matrix(bob2, GATE_MATRICES["CNOT"], [0, 1], 2)
    qb_out = project_rows(pair, 2, [1], [[0]] * len(pair))
    outputs = kron_rows(expand_rows(bob1, chi_a), expand_rows(qb_out, chi_b))
    return teleport_branches(bits, probabilities, outputs, [(0,), (0, 1)])
