"""End-to-end experiment pipelines: the routed two-teleportation circuit
on the device graph, noisy shot histograms, and tomography-based
fidelity repetitions.

``noisy_experiment(nm)`` is the one way into the noisy run.  The noisy
outcome distributions are deterministic given the model, so it runs the
routed circuit and the nine tomography settings through the noise engine
once; the histogram, the shot-free fidelity and every repetition are
read from that one result, and repetitions only re-sample shot noise
with derived seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .channels import NoiseModel, noisy_distribution
from .circuit import Circuit, sample_distribution
from .protocols import (
    EXPERIMENT_OUTPUT_BITS,
    EXPERIMENT_RECEIVER_QUBITS,
    experiment_circuit,
)
from .qstate import (
    GATE_MATRICES,
    DensityMatrix,
    StateVector,
    partial_trace,
    plus_state,
    tensor,
    to_density,
)
from .tomography import (
    _BASIS_ROTATION,
    expectations_from_settings,
    fidelity,
    pure_fidelity,
    reconstruct,
    settings,
)
from .transpile import casablanca_topology, route


def child_seeds(seed: int, count: int) -> list:
    """Deterministic per-task seeds derived from one master seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@cache
def routed_experiment():
    """Route the |+>,|+> two-teleportation circuit (without output
    measurement) onto the device graph, once per process.  Returns
    (layout, routed circuit, receiver physical qubits, cost report)."""
    logical = experiment_circuit(measure_outputs=False)
    layout, routed, report = route(logical, casablanca_topology())
    receivers = tuple(layout.mapping[q] for q in EXPERIMENT_RECEIVER_QUBITS)
    return layout, routed, receivers, report


def marginal_counts(counts: dict, bit_names, wanted) -> dict:
    positions = [list(bit_names).index(b) for b in wanted]
    out = {}
    for bits, k in counts.items():
        key = "".join(bits[p] for p in positions)
        out[key] = out.get(key, 0) + k
    return out


def ideal_output_state() -> StateVector:
    return tensor(plus_state(), plus_state())


def _tail_circuit(num_qubits, receivers, rotations: str):
    c = Circuit(num_qubits)
    for q, axis in zip(receivers, rotations):
        if axis != "Z":
            c.custom(_BASIS_ROTATION[axis], [q])
    for q, bit in zip(receivers, EXPERIMENT_OUTPUT_BITS):
        c.measure(q, bit)
    return c


@dataclass(frozen=True)
class NoisyExperiment:
    """One noisy run of the routed experiment.

    ``state`` is the exact density matrix after the teleportation
    corrections (classical control ends there, so the measurement
    branches are merged); ``setting_dists`` maps each tomography setting
    ("XX" .. "ZZ") to the exact distribution over the two receiver bits,
    readout confusion included.
    """

    state: DensityMatrix
    receivers: tuple
    setting_dists: dict

    def histogram(self, shots: int, seed: int) -> dict:
        """Shot histogram over the two receiver bits (the ZZ setting)."""
        return sample_distribution(self.setting_dists["ZZ"], shots, seed)

    def deterministic_fidelity(self) -> float:
        """Shot-free reference: fidelity of the receiver qubits' exact
        noisy marginal against the ideal output."""
        marginal = partial_trace(self.state, set(self.receivers))
        # partial_trace keeps ascending order; receiver 1 may map above receiver 2.
        if self.receivers[0] > self.receivers[1]:
            swap = GATE_MATRICES["SWAP"]
            marginal = DensityMatrix(2, swap @ marginal.entries @ swap)
        return pure_fidelity(ideal_output_state(), marginal)

    def tomography(self, shots: int, seed: int):
        """Hardware-style tomography of the receiver qubits: all nine
        Pauli settings at ``shots`` shots each, linear-inversion
        reconstruction.  Returns (density matrix, fidelity vs the ideal
        |+>|+> output)."""
        seeds = child_seeds(seed, len(self.setting_dists))
        setting_counts = {
            setting: sample_distribution(dist, shots, s)
            for (setting, dist), s in zip(sorted(self.setting_dists.items()), seeds)
        }
        rho = reconstruct(expectations_from_settings(setting_counts, 2), 2)
        return rho, fidelity(to_density(ideal_output_state()), rho)

    def repetition_fidelities(self, shots: int, seed: int, reps: int) -> list:
        """Tomography fidelities for ``reps`` independently seeded
        repetitions."""
        return [self.tomography(shots, s)[1] for s in child_seeds(seed, reps)]


def noisy_experiment(nm: NoiseModel) -> NoisyExperiment:
    """Run the routed experiment through the noise engine once, then the
    nine tomography tails from its post-correction state."""
    _, routed, receivers, _ = routed_experiment()
    state, _ = noisy_distribution(routed, nm)
    setting_dists = {}
    for s in settings(2):
        tail = _tail_circuit(state.num_qubits, receivers, s)
        _, setting_dists[s] = noisy_distribution(tail, nm, initial_rho=state.entries)
    return NoisyExperiment(state, receivers, setting_dists)
