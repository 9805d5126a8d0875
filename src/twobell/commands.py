"""Every command: ``run``, ``tomography``, ``stats``, ``route`` and
``compare``, and ``run``'s ``--csv`` export.  ``cli`` imports this module
when it is loaded, and this module imports every module the commands use:
``protocols`` with all three of its schemes, and ``circuit`` and
``transpile`` with ``route``'s text formats.  The experiment's rules are
in ``experiments``.

``tomography`` takes only inputs that compress to |+>; ``compare`` is
defined for m = 1.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from . import experiments
from .circuit import from_text, numbered_lines, read_lines, to_text
from .config import ExperimentConfig
from .protocols import (CLUSTER_QUBITS, cluster_channel_teleport, compress_ghz_class,
                        multi_output_teleport, teleport_two_qubit_general)
from .qstate import tensor
from .tomography import fidelity_stats, overlap, pure_fidelity, tomography_from_state
from .transpile import casablanca_topology, load_coupling_graph, route


def packaged_fidelities_path():
    return resources.files("twobell.data") / "paper_fidelities.txt"


def _branch_docs(branches, ideal):
    docs = []
    for b in branches:
        docs.append(
            {
                "outcome_bits": b.outcome_bits,
                "probability": round(b.probability, 12),
                "corrections": [
                    {"receiver": r, "pauli": p, "qubit": q} for r, p, q in b.corrections
                ],
                "output_amplitudes": b.output.amplitudes.view(float).reshape(-1, 2),  # [re, im] each
                "fidelity_vs_ideal": round(overlap(b.output, ideal), 12),
            }
        )
    return docs


def cmd_run(config: ExperimentConfig) -> dict:
    # Each two_bell input is compressed once, for the check, the run and the histogram.
    compressed = None if config.noise is None else experiments.check_plus_inputs(config, "the noisy run")
    report = None
    if config.scheme == "general_two_qubit":
        ideal = config.general_input
        branches, report = teleport_two_qubit_general(ideal)
    else:
        ideal = tensor(config.chi_a.to_statevector(), config.chi_b.to_statevector())
        if config.scheme == "cluster5":
            branches = cluster_channel_teleport(config.chi_a, config.chi_b)
        else:
            compressed = compressed or [compress_ghz_class(chi) for chi in (config.chi_a, config.chi_b)]
            branches, report = multi_output_teleport(config.chi_a, config.chi_b, compressed)
    doc = {
        "scheme": config.scheme,
        "shots": config.shots,
        "seed": config.seed,
        "branches": _branch_docs(branches, ideal),
    }
    if report is not None:
        doc["resources"] = {
            "bell_pairs": report.bell_pairs,
            "channel_qubits": report.channel_qubits,
            "unknown_coefficients": report.unknown_coefficients,
        }
    else:
        doc["resources"] = {"channel_qubits": CLUSTER_QUBITS,
                            "channel": "five_qubit_cluster"}

    if config.scheme == "two_bell":
        doc["ideal"] = {
            "histogram": experiments.ideal_histogram(compressed, config.shots, config.seed),
            "fidelity_percent": 100.0,
        }
        nm = config.noise_model()
        if nm is not None:
            exp = experiments.noisy_experiment(nm)
            fid_det = exp.deterministic_fidelity()
            noisy_doc = {
                "histogram": exp.histogram(config.shots, config.seed),
                "fidelity_percent_deterministic": round(100 * fid_det, 6),
            }
            if config.reps >= 1:
                fids = exp.repetition_fidelities(config.shots, config.seed, config.reps)
                noisy_doc["repetition_fidelities_percent"] = [
                    round(100 * f, 6) for f in fids
                ]
                if len(fids) >= 2:
                    stats = fidelity_stats([100 * f for f in fids])
                    noisy_doc["stats"] = {
                        "mean": round(stats.mean, 6),
                        "sample_std": round(stats.sample_std, 6),
                    }
            noisy_doc["classical_limit_percent"] = round(100 * experiments.CLASSICAL_LIMIT, 6)
            doc["noisy"] = noisy_doc
    return doc


def cmd_tomography(config: ExperimentConfig, exact: bool = False) -> dict:
    if exact and config.noise is not None:
        raise ValueError("noise: exact tomography is noiseless; it takes no calibration")
    experiments.check_plus_inputs(config, "tomography")
    ideal = experiments.ideal_output_state()
    nm = config.noise_model()
    if nm is None:
        rho = tomography_from_state(ideal, shots=None if exact else config.shots, seed=config.seed)
        fid = pure_fidelity(ideal, rho)
    else:
        rho, fid = experiments.noisy_experiment(nm).tomography(config.shots, config.seed)
    return {
        "mode": "exact" if exact else ("ideal_sampled" if nm is None else "noisy"),
        "shots": None if exact else config.shots,
        "seed": config.seed,
        "density_matrix": {
            "real": np.array([[round(v, 12) for v in row] for row in rho.entries.real.tolist()]),
            "imag": np.array([[round(v, 12) for v in row] for row in rho.entries.imag.tolist()]),
        },
        "fidelity_percent": round(100 * fid, 6),
        "classical_limit_percent": round(100 * experiments.CLASSICAL_LIMIT, 6),
    }


def cmd_stats(values_path=None) -> dict:
    values = []
    for line_no, line in numbered_lines(read_lines(values_path or packaged_fidelities_path())):
        try:
            value = float(line)
            if not np.isfinite(value):
                raise ValueError
        except ValueError:
            raise ValueError(f"line {line_no}: expected a finite number, got {line!r}") from None
        values.append(value)
    stats = fidelity_stats(values)
    return {
        "values": list(stats.values),
        "mean": round(stats.mean, 6),
        "sample_std": round(stats.sample_std, 6),
    }


def cmd_route(circuit_path, graph_path=None) -> dict:
    circuit = from_text("".join(read_lines(circuit_path)))
    graph = load_coupling_graph(graph_path) if graph_path else casablanca_topology()
    layout, routed, report, _ = route(circuit, graph)
    return {
        "layout": {str(l): p for l, p in sorted(layout.items())},
        "cost": {
            "cnot_count": report.cnot_count,
            "swap_count": report.swap_count,
            "depth": report.depth,
        },
        "routed_circuit": to_text(routed),
    }


def cmd_compare(config: ExperimentConfig) -> dict:
    if config.noise is not None:
        raise ValueError("noise: compare is a noiseless comparison; it takes no calibration")
    two_bell, report = multi_output_teleport(config.chi_a, config.chi_b)
    cluster = cluster_channel_teleport(config.chi_a, config.chi_b)
    by_bits = {b.outcome_bits: b.output for b in cluster}
    worst = min([1.0] + [overlap(b.output, by_bits[b.outcome_bits]) for b in two_bell])
    return {
        "equivalent": bool(worst > 1 - 1e-10),
        "min_branch_fidelity": round(worst, 12),
        "resources": {
            "two_bell": {
                "bell_pairs": report.bell_pairs,
                "channel_qubits": report.channel_qubits,
            },
            "cluster5": {"channel_qubits": CLUSTER_QUBITS},
        },
    }


def histogram_csv(doc: dict) -> str:
    """``run --csv``: the document's noisy histogram, else its ideal one, as CSV
    text with ``csv.writer``'s CRLF line ends."""
    hist = doc.get("noisy", {}).get("histogram") or doc.get("ideal", {}).get("histogram")
    if hist is None:
        raise ValueError("document has no histogram to export")
    rows = [("outcome", "count"), *sorted(hist.items())]
    return "".join(f"{outcome},{count}\r\n" for outcome, count in rows)
