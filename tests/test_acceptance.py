"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (visible with ``pytest -s`` or on failure)."""

import time
from itertools import permutations

import numpy as np
import pytest
from conftest import random_bell_type, table_records

from twobell.channels import build_noise_model
from twobell.circuit import Circuit, sample_counts
from twobell.commands import packaged_fidelities_path
from twobell.experiments import experiment_circuit, noisy_experiment
from twobell.protocols import ResourceReport, multi_output_teleport
from twobell.qstate import StateVector, tensor, to_density
from twobell.schemes import cluster_channel_teleport
from twobell.tomography import (
    DensityMatrix,
    exact_expectations,
    fidelity,
    fidelity_stats,
    pure_fidelity,
    reconstruct,
    tomography_from_state,
    trace_distance,
)
from twobell.transpile import casablanca_topology, route


class _Check:
    """Collects a criterion's verdict and prints exactly one line."""

    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.name}): {verdict} [{elapsed:.2f}s]"
        )
        if exc_type is None and elapsed >= self.limit_s:
            raise AssertionError(
                f"criterion {self.number} exceeded {self.limit_s}s ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_two_bell_pairs_suffice():
    with _Check(1, "two Bell pairs teleport any m-vs-(m+1) pair exactly", 10):
        rng = np.random.default_rng(101)
        for i in range(200):
            m = 1 + i % 3
            chi_a = random_bell_type(m, rng)
            chi_b = random_bell_type(m + 1, rng)
            branches, report = multi_output_teleport(chi_a, chi_b)
            assert report.bell_pairs == 2
            ideal = to_density(tensor(chi_a.to_statevector(), chi_b.to_statevector()))
            for b in branches:
                assert abs(pure_fidelity(b.output, ideal) - 1.0) < 1e-10


def test_criterion_2_cluster_baseline_equivalence():
    with _Check(2, "cluster channel and two-Bell scheme agree branchwise", 5):
        rng = np.random.default_rng(102)
        for _ in range(50):
            chi_a = random_bell_type(1, rng)
            chi_b = random_bell_type(2, rng)
            two_bell, report = multi_output_teleport(chi_a, chi_b)
            cluster = cluster_channel_teleport(chi_a, chi_b)
            by_bits = {b.outcome_bits: b for b in cluster}
            for b in two_bell:
                fid = pure_fidelity(b.output, to_density(by_bits[b.outcome_bits].output))
                assert abs(fid - 1.0) < 1e-10
            assert report.channel_qubits == 4  # vs 5 for the cluster channel


def test_criterion_3_ideal_histogram_uniform():
    with _Check(3, "noiseless 8192-shot histogram uniform within 3 sigma", 5):
        circuit = experiment_circuit()
        sigma = np.sqrt(8192 * 0.25 * 0.75)
        good = 0
        for seed in range(10):
            counts = sample_counts(circuit, 8192, seed)
            marg = {}
            for bits, k in counts.items():
                marg[bits[4:]] = marg.get(bits[4:], 0) + k
            if all(
                abs(marg.get(o, 0) - 2048) < 3 * sigma for o in ("00", "01", "10", "11")
            ):
                good += 1
        assert good >= 9


def test_criterion_4_reference_statistics():
    with _Check(4, "10-run statistics: std 3.096, mean 79.636", 1):
        values = [
            float(l)
            for l in packaged_fidelities_path().read_text().splitlines()
            if l.strip() and not l.startswith("#")
        ]
        stats = fidelity_stats(values)
        assert abs(stats.sample_std - 3.096) < 0.001
        assert abs(stats.mean - 79.636) < 0.001


def test_criterion_5_noise_model_plausibility():
    with _Check(5, "calibrated noise gives realistic sub-ideal fidelity", 30):
        exp = noisy_experiment(build_noise_model(table_records()))
        fids = exp.repetition_fidelities(8192, 105, reps=10)
        mean = float(np.mean(fids))
        assert 2 / 3 < mean < 0.98
        assert max(fids) < 1.0
        dist = exp.setting_dists["ZZ"]
        probs = [dist.get(o, 0.0) for o in ("00", "01", "10", "11")]
        assert max(probs) - min(probs) > 0.005


def test_criterion_6_fidelity_formula():
    with _Check(6, "Uhlmann fidelity consistent with pure-state formula", 2):
        rng = np.random.default_rng(106)
        for _ in range(20):
            n = 1 + int(rng.integers(2))
            d = 2 ** n
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = StateVector(n, v / np.linalg.norm(v))
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = m @ m.conj().T
            rho = DensityMatrix(n, m / np.trace(m).real)
            assert abs(pure_fidelity(psi, rho) - fidelity(to_density(psi), rho)) < 1e-8
            assert abs(fidelity(rho, rho) - 1.0) < 1e-10
        zero = to_density(StateVector(1, [1, 0]))
        one = to_density(StateVector(1, [0, 1]))
        assert fidelity(zero, one) < 1e-10


def test_criterion_7_tomography_roundtrip():
    with _Check(7, "tomography: exact round-trip and sampled accuracy", 30):
        rng = np.random.default_rng(107)
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = StateVector(2, v / np.linalg.norm(v))
            rho = to_density(psi)
            got = reconstruct(exact_expectations(rho), 2)
            assert trace_distance(got, rho) < 1e-10
        plus2 = StateVector(2, [0.5, 0.5, 0.5, 0.5])
        ideal = to_density(plus2)
        good = 0
        for seed in range(10):
            got = tomography_from_state(plus2, shots=8192, seed=seed)
            if trace_distance(got, ideal) < 0.05:
                good += 1
        assert good >= 9


def test_criterion_8_routing_optimality():
    with _Check(8, "routing: zero-SWAP experiment layout, triangle needs one", 10):
        g = casablanca_topology()
        circuit = experiment_circuit(measure_outputs=False)
        pairs = sorted(
            {
                tuple(sorted(s.targets))
                for s in circuit.steps
                if getattr(s, "kind", None) == "CNOT"
            }
        )
        _, _, report, _ = route(circuit, g)
        assert report.swap_count == 0
        assert report.cnot_count == 4
        # Brute-force: an edge-respecting injective mapping exists, so 4 is
        # minimal (each logical CNOT costs at least one physical CNOT).
        found = any(
            all(g.has_edge(p[a], p[b]) for a, b in pairs)
            for p in permutations(range(7), 6)
        )
        assert found

        triangle = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2)
        _, _, tri_report, _ = route(triangle, g)
        assert tri_report.swap_count >= 1
        # Triangle-free graph: brute force confirms no 0-SWAP mapping.
        tri_pairs = [(0, 1), (1, 2), (0, 2)]
        assert not any(
            all(g.has_edge(p[a], p[b]) for a, b in tri_pairs)
            for p in permutations(range(7), 3)
        )


def test_criterion_9_resource_rule():
    with _Check(9, "Bell-pair count follows ceil(log2 n)", 1):
        for n in range(1, 17):
            assert ResourceReport(n).bell_pairs == int(np.ceil(np.log2(n)))
        assert ResourceReport(4).bell_pairs == 2
