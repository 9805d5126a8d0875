"""Teleportation schemes over two Bell pairs, the five-qubit-cluster
baseline, the generalized-Bell-type compression step, and resource
accounting.

Inputs are ``GeneralizedBellTypeState`` values, or a 2-qubit
``StateVector`` for the general two-qubit scheme.  ``ResourceReport``
derives its Bell-pair and channel-qubit counts from n unknown coefficients.

Correction convention: a Bell measurement (CNOT then H, reading bits
(b1, b2)) maps outcomes to receiver Paulis 00 -> I, 01 -> X, 10 -> Z,
11 -> Z.X (X applied first).  ``_corrections`` is that one table: the leg
builder ``_teleport`` emits it as controlled gates, and each
``TeleportBranch.corrections`` reports it for the branch's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import ceil, log2

import numpy as np

from .circuit import Circuit, Gate, run_exact
from .qstate import (
    GATE_MATRICES,
    NORM_ATOL,
    StateVector,
    apply_unitary,
    basis_state,
    prep_unitary,
    project_qubits,
    split_product,
    tensor,
)


@dataclass(frozen=True)
class GeneralizedBellTypeState:
    """Symbolic alpha|x> + beta|x-bar> on n qubits (x-bar = bitwise complement)."""

    n: int
    x: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.x < 2 ** self.n:
            raise ValueError(f"x={self.x} out of range for n={self.n}")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > NORM_ATOL:
            raise ValueError("|alpha|^2 + |beta|^2 must be 1")

    @property
    def x_bar(self) -> int:
        return (2 ** self.n - 1) ^ self.x

    def to_statevector(self) -> StateVector:
        amps = np.zeros(2 ** self.n, dtype=complex)
        amps[self.x] = self.alpha
        amps[self.x_bar] = self.beta
        return StateVector(self.n, amps)


@dataclass(frozen=True)
class TeleportBranch:
    outcome_bits: str
    corrections: tuple  # of (receiver, pauli, qubit)
    probability: float
    output: StateVector


@dataclass(frozen=True)
class ResourceReport:
    """ceil(log2 n) Bell pairs for n unknown coefficients, two qubits each."""

    unknown_coefficients: int

    def __post_init__(self):
        if self.unknown_coefficients < 1:
            raise ValueError("need at least one coefficient")

    @property
    def bell_pairs(self) -> int:
        return ceil(log2(self.unknown_coefficients))

    @property
    def channel_qubits(self) -> int:
        return 2 * self.bell_pairs


# -- state constructors ------------------------------------------------------


def prepare_cluster5() -> StateVector:
    """The five-qubit cluster channel (|00000>+|01011>+|10100>+|11111>)/2."""
    amps = np.zeros(32, dtype=complex)
    for idx in (0b00000, 0b01011, 0b10100, 0b11111):
        amps[idx] = 0.5
    return StateVector(5, amps)


@cache
def _cluster5_prep() -> np.ndarray:
    """The cluster channel's preparation unitary, built once, read-only."""
    u = prep_unitary(prepare_cluster5().amplitudes)
    u.setflags(write=False)
    return u


# -- compression of generalized Bell-type states -----------------------------


def compress_ghz_class(s: GeneralizedBellTypeState):
    """Reduce alpha|x> + beta|x-bar> to (alpha|0> + beta|1>) on one qubit.

    The compression is one circuit: a CNOT ladder from qubit 0 to qubits
    n-1 down to 1, an X on each tail qubit left at 1 (descending), and an
    X on the head if bit 0 of x is set.  Returns the compressed qubit and
    that circuit, which ``expand_ghz_class`` runs backwards.
    """
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
    psi = run_exact(compression, s.to_statevector()).entries[0].state
    if n > 1:
        psi = project_qubits(psi, {q: 0 for q in range(1, n)})
    return psi, compression


def expand_ghz_class(q: StateVector, compression: Circuit) -> StateVector:
    """Invert ``compress_ghz_class``: run its compression backwards on the
    teleported single qubit and fresh |0> ancillas."""
    if q.num_qubits != 1:
        raise ValueError("expand takes a single-qubit state")
    # X and CNOT are their own inverses, so the reversed steps undo them.
    if any(not isinstance(g, Gate) or g.kind not in ("X", "CNOT") or g.bit is not None
           for g in compression.steps):
        raise ValueError("not a compression: only unconditional X and CNOT gates invert")
    n = compression.num_qubits
    psi = q if n == 1 else tensor(q, basis_state(n - 1, 0))
    return run_exact(Circuit(n, reversed(compression.steps)), psi).entries[0].state


# -- teleportation ------------------------------------------------------------

def _branches(c: Circuit, fixed=None):
    """(bits, probability, state of the unmeasured qubits) per branch of
    ``c``: its ``run_exact`` state sliced at each measured qubit's value,
    and at the values in ``fixed`` (qubit -> 0/1)."""
    for e in run_exact(c).entries:
        assign = {q: int(b) for q, b in zip(c.measured.values(), e.bits)}
        yield e.bits, e.probability, project_qubits(e.state, {**assign, **(fixed or {})})


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


def _teleport(c: Circuit, legs, shared: bool = False) -> Circuit:
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


def teleport_single(psi: StateVector) -> list:
    """Standard one-qubit teleportation over |phi+>, all four branches.

    Qubit layout: 0 = input, (1, 2) = Bell pair, receiver holds 2.
    """
    if psi.num_qubits != 1:
        raise ValueError("teleport_single takes a single-qubit state")
    c = Circuit(3).custom(prep_unitary(psi.amplitudes), [0])
    return [TeleportBranch(bits, _reported(bits, [(0,)]), p, out)
            for bits, p, out in _branches(_teleport(c, [(0, 1, (2,))]))]


def multi_output_teleport(
    chi_a: GeneralizedBellTypeState, chi_b: GeneralizedBellTypeState
):
    """Teleport an m-qubit and an (m+1)-qubit generalized Bell-type state
    to two receivers over exactly two Bell pairs.

    Both inputs are compressed to single qubits, sent through independent
    standard teleportations, and re-expanded at the receivers.  Returns
    (branches, resource report); the joint output of every branch is
    chi_a (x) chi_b.
    """
    if chi_b.n != chi_a.n + 1:
        raise ValueError("chi_b must have exactly one more qubit than chi_a")
    qa, comp_a = compress_ghz_class(chi_a)
    qb, comp_b = compress_ghz_class(chi_b)
    outs_a = [(ba, expand_ghz_class(ba.output, comp_a)) for ba in teleport_single(qa)]
    outs_b = [(bb, expand_ghz_class(bb.output, comp_b)) for bb in teleport_single(qb)]
    qubit_sets = (range(chi_a.n), range(chi_b.n))
    branches = []
    for ba, out_a in outs_a:
        for bb, out_b in outs_b:
            bits = ba.outcome_bits + bb.outcome_bits
            branches.append(TeleportBranch(bits, _reported(bits, qubit_sets),
                                           ba.probability * bb.probability, tensor(out_a, out_b)))
    branches.sort(key=lambda b: b.outcome_bits)
    return branches, ResourceReport(4)


def teleport_two_qubit_general(psi: StateVector):
    """Teleport a general (possibly entangled) two-qubit state with two
    Bell pairs: one standard teleportation per qubit.

    Qubit layout: (0, 1) input pair, (2, 3) and (4, 5) Bell pairs;
    the receiver side holds 3 and 5.
    """
    if psi.num_qubits != 2:
        raise ValueError("teleport_two_qubit_general takes a two-qubit state")
    c = Circuit(6).custom(prep_unitary(psi.amplitudes), [0, 1])
    _teleport(c, [(0, 2, (3,)), (1, 4, (5,))])
    branches = [TeleportBranch(bits, _reported(bits, [(0,), (1,)]), p, out)
                for bits, p, out in _branches(c)]  # out: receiver qubits (3, 5)
    return branches, ResourceReport(4)


def cluster_channel_teleport(
    chi_a: GeneralizedBellTypeState, chi_b: GeneralizedBellTypeState
):
    """Baseline multi-output teleportation over the five-qubit cluster
    channel, for the m=1 case (chi_a on 1 qubit, chi_b on 2).

    The channel is exactly the five-qubit cluster state; its qubit 3 goes
    to receiver 1 and qubits 4, 5 to receiver 2.  Alice compresses her
    inputs locally, which turns her entangled-basis measurement into two
    Bell measurements; every branch then admits local Pauli corrections.
    """
    if chi_a.n != 1 or chi_b.n != 2:
        raise ValueError("m: the cluster baseline is defined for m = 1")
    _, comp_a = compress_ghz_class(chi_a)
    _, comp_b = compress_ghz_class(chi_b)

    # Register: 0 = chi_a, (1, 2) = chi_b, 3..7 = cluster qubits 1..5.
    c = Circuit(8)
    c.custom(prep_unitary(chi_a.to_statevector().amplitudes), [0])
    c.custom(prep_unitary(chi_b.to_statevector().amplitudes), [1, 2])
    c.custom(_cluster5_prep(), [3, 4, 5, 6, 7])
    # Alice's local compressions.
    for g in comp_a.steps:
        c.add(g.on((0,)))
    for g in comp_b.steps:
        c.add(g.on((1, 2)))
    # Bell measurements against the cluster qubits Alice keeps.  Receiver 1
    # is on cluster qubit 3; receiver 2 on the (4, 5) code pair, where
    # logical X is X(x)X and logical Z acts on either qubit.
    _teleport(c, [(0, 3, (5,)), (1, 4, (6, 7))], shared=True)
    branches = []
    # Qubit 2 holds chi_b's compressed ancilla, back in |0>.
    for bits, p, joint in _branches(c, fixed={2: 0}):  # joint: qubits (5, 6, 7)
        bob1, bob2 = split_product(joint, [1, 2])
        out_a = expand_ghz_class(bob1, comp_a)
        # Receiver 2 holds alpha|00> + beta|11>; a final CNOT frees the
        # compressed qubit, then the compression run backwards rebuilds chi_b.
        pair = apply_unitary(bob2, GATE_MATRICES["CNOT"], [0, 1])
        qb_out = project_qubits(pair, {1: 0})
        out_b = expand_ghz_class(qb_out, comp_b)
        corrections = _reported(bits, [(0,), (0, 1)])
        branches.append(TeleportBranch(bits, corrections, p, tensor(out_a, out_b)))
    return branches


# -- the experiment circuit ---------------------------------------------------

EXPERIMENT_LEGS = ((0, 1, (2,)), (3, 4, (5,)))  # (source, sender, receivers)
EXPERIMENT_RECEIVER_QUBITS = tuple(receivers[0] for _, _, receivers in EXPERIMENT_LEGS)
EXPERIMENT_OUTPUT_BITS = ("out1", "out2")


def experiment_circuit(
    input_a: StateVector | None = None,
    input_b: StateVector | None = None,
    measure_outputs: bool = True,
) -> Circuit:
    """The six-qubit two-teleportation experiment circuit.

    Defaults teleport |+> and |+> (prepared with Hadamards).  Layout:
    0, 3 information qubits; (1, 2) and (4, 5) Bell pairs; receivers
    hold 2 and 5.  With ``measure_outputs`` the receiver qubits land in
    classical bits out1, out2.
    """
    c = Circuit(6)
    for (source, _, _), psi in zip(EXPERIMENT_LEGS, (input_a, input_b)):
        if psi is None:
            c.h(source)
        else:
            c.custom(prep_unitary(psi.amplitudes), [source])
    _teleport(c, EXPERIMENT_LEGS)
    if measure_outputs:
        for q, bit in zip(EXPERIMENT_RECEIVER_QUBITS, EXPERIMENT_OUTPUT_BITS):
            c.measure(q, bit)
    return c
