"""The commands other than ``run``: ``tomography``, ``stats``, ``route`` and
``compare``, and ``run``'s ``--csv`` export.  ``cli.main`` imports this
module on first use, so a ``twobell run`` loads none of it.

``tomography`` takes only inputs that compress to |+>; ``compare`` is
defined for m = 1.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from . import experiments
from .circuit import read_lines
from .config import ExperimentConfig
from .protocols import multi_output_teleport
from .schemes import CLUSTER_QUBITS, cluster_channel_teleport
from .textformat import from_text, load_coupling_graph, numbered_lines, to_text
from .tomography import fidelity_stats, overlap, pure_fidelity, tomography_from_state
from .transpile import casablanca_topology, route


def packaged_fidelities_path():
    return resources.files("twobell.data") / "paper_fidelities.txt"


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


def cmd_stats(values_path) -> dict:
    values = []
    for line_no, line in numbered_lines(read_lines(values_path)):
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
