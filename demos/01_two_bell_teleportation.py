"""Teleporting two entangled states at once over just two Bell pairs.

A state of the form alpha|x> + beta|x_bar> (x_bar = bitwise complement)
carries only two unknown amplitudes no matter how many qubits it spans.
A CNOT ladder compresses it to a single qubit, and the same gates run
backwards rebuild it at the receiver, so teleporting one m-qubit and one
(m+1)-qubit state of this family costs exactly two Bell pairs.
"""

import numpy as np

from twobell import (
    GeneralizedBellTypeState,
    ResourceReport,
    multi_output_teleport,
)
from twobell.qstate import tensor, to_density
from twobell.tomography import pure_fidelity

rng = np.random.default_rng(0)

# Two states with random coefficients: a 2-qubit one for receiver 1 and a
# 3-qubit one for receiver 2.
a = rng.normal(size=2) + 1j * rng.normal(size=2)
a /= np.linalg.norm(a)
b = rng.normal(size=2) + 1j * rng.normal(size=2)
b /= np.linalg.norm(b)

chi_a = GeneralizedBellTypeState(2, x=0b01, alpha=a[0], beta=a[1])
chi_b = GeneralizedBellTypeState(3, x=0b010, alpha=b[0], beta=b[1])

branches, resources = multi_output_teleport(chi_a, chi_b)

print("channel:", resources.bell_pairs, "Bell pairs =",
      resources.channel_qubits, "channel qubits")
print("branches:", len(branches))

ideal = to_density(tensor(chi_a.to_statevector(), chi_b.to_statevector()))
worst = min(pure_fidelity(br.output, ideal) for br in branches)
print(f"worst branch fidelity vs the intended joint state: {worst:.12f}")

# The resource rule in general: teleporting n unknown amplitudes needs
# ceil(log2 n) Bell pairs.
for n in (1, 2, 4, 8, 16):
    print(f"n = {n:2d} unknown amplitudes -> "
          f"{ResourceReport(n).bell_pairs} Bell pairs")
