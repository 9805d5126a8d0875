"""Comparing the two-Bell-pair scheme against a five-qubit cluster channel.

The five-qubit cluster channel used as a baseline factorizes into a Bell
pair and a three-qubit GHZ state, so the same pair of states can be sent
through it. Both schemes give identical receiver states branch for
branch - but the cluster needs 5 channel qubits where two Bell pairs
need 4.
"""

import numpy as np

from twobell import GeneralizedBellTypeState
from twobell.protocols import multi_output_teleport
from twobell.qstate import to_density
from twobell.schemes import cluster_channel_teleport, prepare_cluster5
from twobell.tomography import pure_fidelity

# The channel state: four equal basis terms.
cluster = prepare_cluster5()
support = np.flatnonzero(cluster.amplitudes)
print("cluster channel support:", [format(i, "05b") for i in support])

rng = np.random.default_rng(1)
a = rng.normal(size=2) + 1j * rng.normal(size=2)
a /= np.linalg.norm(a)
b = rng.normal(size=2) + 1j * rng.normal(size=2)
b /= np.linalg.norm(b)

chi_a = GeneralizedBellTypeState(1, 0, a[0], a[1])
chi_b = GeneralizedBellTypeState(2, 0, b[0], b[1])

two_bell, resources = multi_output_teleport(chi_a, chi_b)
via_cluster = cluster_channel_teleport(chi_a, chi_b)

by_bits = {br.outcome_bits: br for br in via_cluster}
worst = min(
    pure_fidelity(br.output, to_density(by_bits[br.outcome_bits].output))
    for br in two_bell
)
print(f"branch-for-branch agreement (worst fidelity): {worst:.12f}")
print("channel qubits: cluster 5 vs two Bell pairs", resources.channel_qubits)
