"""The paper's experiment and its end-to-end pipelines: the two-teleportation
circuit (``experiment_circuit``, its legs, receiver qubits and output bits),
routed on the device graph, noisy shot histograms, and tomography-based
fidelity repetitions.  ``tomography`` and the noisy run take only
inputs that compress to |+> (``check_plus_inputs``).

``noisy_experiment(nm)`` is the one way into the noisy run.  The noisy
outcome distributions are deterministic given the model, so it runs the
routed circuit (one teleportation leg at a time) and the nine tomography
settings through the noise engine once; the histogram, the shot-free
fidelity and every repetition are read from that one result, and
repetitions only re-sample shot noise with derived seeds.
"""

from __future__ import annotations

from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .channels import NoiseModel, noisy_distribution
from .circuit import Circuit, legs, sample_counts, sample_distribution, summed
from .protocols import compress_ghz_class, teleport_legs
from .qstate import (
    DensityMatrix,
    StateVector,
    partial_trace,
    plus_state,
    prep_unitary,
    tensor,
)
from .tomography import (
    BASIS_ROTATION,
    expectations_from_settings,
    overlap,
    pure_fidelity,
    reconstruct,
    settings,
)
from .transpile import casablanca_topology, route

CLASSICAL_LIMIT = 2.0 / 3.0
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
    teleport_legs(c, EXPERIMENT_LEGS)
    if measure_outputs:
        for q, bit in zip(EXPERIMENT_RECEIVER_QUBITS, EXPERIMENT_OUTPUT_BITS):
            c.measure(q, bit)
    return c


def child_seeds(seed: int, count: int) -> list:
    """Deterministic per-task seeds derived from one master seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@cache
def routed_experiment():
    """Route the |+>,|+> two-teleportation circuit (without output
    measurement) onto the device graph, once per process.  Returns
    (initial layout, routed circuit, the physical qubits where the receivers
    end, after the router's SWAPs, cost report)."""
    layout, routed, report, final = route(experiment_circuit(measure_outputs=False),
                                          casablanca_topology())
    receivers = tuple(final[q] for q in EXPERIMENT_RECEIVER_QUBITS)
    return layout, routed, receivers, report


def marginal_counts(counts: dict, bit_names, wanted) -> dict:
    """``counts`` over the bits ``bit_names``, summed onto the bits ``wanted``."""
    positions = [list(bit_names).index(b) for b in wanted]
    return summed(("".join(bits[p] for p in positions), k) for bits, k in counts.items())


def ideal_output_state() -> StateVector:
    return tensor(plus_state(), plus_state())


def check_plus_inputs(config, command: str) -> list:
    """Tomography and the noisy run simulate the routed two_bell |+>,|+>
    experiment only.  Returns the inputs' ``compress_ghz_class`` results."""
    if config.scheme != "two_bell":
        raise ValueError(f"scheme: {command} is defined for two_bell, not {config.scheme}")
    compressed = [compress_ghz_class(chi) for chi in (config.chi_a, config.chi_b)]
    for path, q in zip(("input_a", "input_b"), compressed):
        if overlap(plus_state(), q) < 1 - 1e-9:
            raise ValueError(f"{path}: does not compress to |+>, the only input {command} takes")
    return compressed


def ideal_histogram(compressed, shots: int, seed: int) -> dict:
    """Noiseless shot histogram over the two receiver bits, from the compressed inputs."""
    circuit = experiment_circuit(*compressed)
    return marginal_counts(sample_counts(circuit, shots, seed), circuit.measured, EXPERIMENT_OUTPUT_BITS)


def _tail_circuit(rotations: str, receivers, n: int):
    """Rotate the receivers of an n-qubit register into a setting and read them."""
    c = Circuit(n)
    for q, axis in zip(receivers, rotations):
        if axis != "Z":
            c.custom(BASIS_ROTATION[axis], [q])
    for q, bit in zip(receivers, EXPERIMENT_OUTPUT_BITS):
        c.measure(q, bit)
    return c


class NoisyExperiment(NamedTuple):
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
        return rho, pure_fidelity(ideal_output_state(), rho)

    def repetition_fidelities(self, shots: int, seed: int, reps: int) -> list:
        """Tomography fidelities for ``reps`` independently seeded
        repetitions."""
        return [self.tomography(shots, s)[1] for s in child_seeds(seed, reps)]


def noisy_experiment(nm: NoiseModel) -> NoisyExperiment:
    """Run the routed experiment through the noise engine once, then the
    nine tomography tails from its post-correction state.  The routed
    circuit runs one leg at a time (the paper's two teleportations), each
    leg's receivers first, in receiver order; a leg that holds no receiver
    (such as a qubit no step touches, which stays in |0>) cannot change
    their state, so it does not run.  The tails run on the receivers'
    marginal, which the other qubits' local idles cannot change.
    """
    _, routed, receivers, _ = routed_experiment()
    routed_legs, held = legs(routed), {}  # leg -> the receivers it holds, in receiver order
    for r in receivers:
        held.setdefault(next(leg for leg in routed_legs if r in leg), []).append(r)
    parts = []  # each run leg's receiver marginal; for two receivers, in receiver order
    for leg, mine in held.items():
        rho, _ = noisy_distribution(routed, nm, leg=(*mine, *(q for q in leg if q not in mine)))
        parts.append(partial_trace(rho, range(len(mine))).entries)
    state = DensityMatrix(len(receivers), reduce(np.kron, parts))
    setting_dists = {
        s: noisy_distribution(_tail_circuit(s, receivers, routed.num_qubits), nm, state.entries,
                              leg=receivers)[1]
        for s in settings(2)
    }
    return NoisyExperiment(state, receivers, setting_dists)
