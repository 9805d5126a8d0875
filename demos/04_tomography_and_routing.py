"""State tomography of the receiver qubits, and routing onto the device.

Tomography measures the two receiver qubits in all nine Pauli settings,
inverts the expectations linearly, and projects to the nearest physical
density matrix. Routing maps the logical circuit onto the 7-qubit
coupling graph; the double-teleportation circuit fits without any SWAPs.
"""

import numpy as np

from twobell.circuit import Circuit, to_text
from twobell.qstate import plus_state, tensor, to_density
from twobell.tomography import fidelity, tomography_from_state, trace_distance
from twobell.transpile import casablanca_topology, route

# --- tomography of |+>|+> from finite shots ---------------------------------
ideal = tensor(plus_state(), plus_state())
rho = tomography_from_state(ideal, shots=8192, seed=7)
print("reconstructed rho (real part):")
print(np.round(rho.entries.real, 3))
print(f"fidelity vs ideal: {100 * fidelity(to_density(ideal), rho):.2f}%")
print(f"trace distance:    {trace_distance(rho, to_density(ideal)):.4f}")

# --- routing ------------------------------------------------------------------
graph = casablanca_topology()
print("\ncoupling edges:", sorted(tuple(sorted(e)) for e in graph.edges))

# A triangle of interactions cannot be embedded in this triangle-free
# graph, so at least one SWAP (3 CNOTs) is required.
triangle = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2)
layout, routed, report, _ = route(triangle, graph)
print("\ntriangle interactions:", report)
print("layout:", layout)
print(to_text(routed))
