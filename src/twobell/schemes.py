"""The two schemes besides two Bell pairs: the five-qubit-cluster baseline
(Yu et al.'s channel) and the general two-qubit scheme.

``twobell run --scheme cluster5|general_two_qubit`` and ``twobell
compare`` import this module on first use; the two-Bell-pair run loads
none of it.  Both schemes are built from ``protocols``' leg builder
``teleport_legs`` and walk their circuits with ``circuit_branches``.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, run_exact
from .protocols import (
    GeneralizedBellTypeState,
    ResourceReport,
    circuit_branches,
    compression_circuit,
    expand_rows,
    teleport_branches,
    teleport_legs,
)
from .qstate import (
    GATE_MATRICES,
    StateVector,
    apply_matrix,
    kron_rows,
    prep_unitary,
    project_rows,
    split_rows,
)

CLUSTER_QUBITS = 5  # the cluster baseline's channel; two Bell pairs are 4 qubits


def _cluster5(c: Circuit, q) -> Circuit:
    """Append the cluster channel's preparation on qubits q: Bell(q1, q3) (x)
    GHZ(q2, q4, q5), H (x) H as one gate of entries +-1/2, exact."""
    c.custom(np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2, [q[0], q[1]])
    return c.cnot(q[0], q[2]).cnot(q[1], q[3]).cnot(q[1], q[4])


def prepare_cluster5() -> StateVector:
    """The five-qubit cluster channel (|00000>+|01011>+|10100>+|11111>)/2."""
    return run_exact(_cluster5(Circuit(CLUSTER_QUBITS), range(CLUSTER_QUBITS))).entries[0].state


# -- teleportation ------------------------------------------------------------

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
