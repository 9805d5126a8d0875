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
    receivers = tuple(layout[q] for q in EXPERIMENT_RECEIVER_QUBITS)
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


def _tail_circuit(rotations: str):
    """Rotate the two receivers (qubits 0, 1) into a setting and read them."""
    c = Circuit(2)
    for q, axis in enumerate(rotations):
        if axis != "Z":
            c.custom(_BASIS_ROTATION[axis], [q])
    for q, bit in enumerate(EXPERIMENT_OUTPUT_BITS):
        c.measure(q, bit)
    return c


def _light_cone(c: Circuit, receivers):
    """``c`` on only the qubits it touches, renumbered with the receivers
    as 0 and 1, and the tuple of its old qubit for each new one."""
    touched = {q for s in c.steps for q in s.targets}
    active = (*receivers, *sorted(touched - set(receivers)))
    new = {q: i for i, q in enumerate(active)}
    return Circuit(len(active), [s.on(new) for s in c.steps]), active


@dataclass(frozen=True)
class NoisyExperiment:
    """One noisy run of the routed experiment.

    ``state`` is the exact density matrix of the two ``receivers`` after
    the teleportation corrections (classical control ends there, so the
    measurement branches are merged); ``setting_dists`` maps each
    tomography setting ("XX" .. "ZZ") to the exact distribution over the
    two receiver bits, readout confusion included.
    """

    state: DensityMatrix
    receivers: tuple
    setting_dists: dict

    def histogram(self, shots: int, seed: int) -> dict:
        """Shot histogram over the two receiver bits (the ZZ setting)."""
        return sample_distribution(self.setting_dists["ZZ"], shots, seed)

    def deterministic_fidelity(self) -> float:
        """Shot-free reference: fidelity of the receiver qubits' exact
        noisy state against the ideal output."""
        return pure_fidelity(ideal_output_state(), self.state)

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
    nine tomography tails from its post-correction state.  Only the light
    cone runs: the routed circuit on the qubits it touches (an untouched
    qubit stays in |0>), receivers first, and the tails on the receivers'
    marginal, which the other qubits' local idles cannot change.
    """
    _, routed, receivers, _ = routed_experiment()
    compact, active = _light_cone(routed, receivers)
    full, _ = noisy_distribution(compact, nm, qubits=active)
    state = partial_trace(full, {0, 1})
    setting_dists = {
        s: noisy_distribution(_tail_circuit(s), nm, state.entries, qubits=receivers)[1]
        for s in settings(2)
    }
    return NoisyExperiment(state, receivers, setting_dists)
