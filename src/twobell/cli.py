"""Command-line experiment runner.

Subcommands: ``run``, ``tomography``, ``stats``, ``route``, ``compare``.
Every command emits one JSON document (schema_version 1) to stdout or
``--out``; documents are byte-identical for the same config and seed.
The document is written by ``_dumps``, whose text is byte-identical to
``json.dumps(doc, indent=2, sort_keys=True)``.
Fidelities are reported in percent at the CLI surface.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import itertools
import json
import sys
import warnings
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from . import experiments, protocols
from .channels import DurationConfig, build_noise_model, load_calibration
from .circuit import from_text, sample_counts, to_text
from .protocols import (
    GeneralizedBellTypeState,
    cluster_channel_teleport,
    compress_ghz_class,
    experiment_circuit,
    multi_output_teleport,
    teleport_two_qubit_general,
)
from .qstate import StateVector, plus_state, tensor, to_density
from .tomography import fidelity, fidelity_stats, overlap, tomography_from_state
from .transpile import casablanca_topology, load_coupling_graph, route

SCHEMA_VERSION = 1
CLASSICAL_LIMIT = 2.0 / 3.0
DEFAULT_SHOTS = 8192
MAX_SHOTS = 2 ** 63 - 1  # numpy's multinomial takes a signed 64-bit count
MAX_M = 8  # the run document grows 4x per step of m: ~105 MB at m = 8

SCHEMES = ("two_bell", "cluster5", "general_two_qubit")
INPUT_KEYS = ("x", "alpha", "beta")


def packaged_calibration_path():
    return resources.files("twobell.data") / "casablanca_2021-12-01.csv"


def packaged_fidelities_path():
    return resources.files("twobell.data") / "paper_fidelities.txt"


@dataclass
class ExperimentConfig:
    scheme: str = "two_bell"
    m: int = 1
    input_a: dict = field(default_factory=lambda: {"x": 0})
    input_b: dict = field(default_factory=lambda: {"x": 0})
    coefficients: list | None = None  # general_two_qubit only
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    noise: str | None = None  # None or calibration CSV path
    durations: dict = field(default_factory=dict)
    reps: int = 1
    workers: int = 1  # ignored; accepted so that older configs still load

    def __post_init__(self):
        _check_keys(self.durations, [f.name for f in fields(DurationConfig)], "durations")
        for name, value in self.durations.items():
            if not _is_finite(value):
                raise ValueError(f"durations.{name} must be a finite number, got {value!r}")
        _check_keys(self.input_a, INPUT_KEYS, "input_a")
        _check_keys(self.input_b, INPUT_KEYS, "input_b")
        for name in ("m", "shots", "seed", "reps", "workers"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.coefficients is not None and (
            not isinstance(self.coefficients, list) or len(self.coefficients) != 4
        ):
            raise ValueError("coefficients must be a list of 4 amplitudes")
        if self.noise is not None and not isinstance(self.noise, str):
            raise ValueError(f"noise must be a calibration path or 'builtin', got {self.noise!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shots > MAX_SHOTS:
            raise ValueError("shots must be <= 2**63 - 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.m > MAX_M:
            raise ValueError(f"m must be <= {MAX_M}")
        if self.reps < 0:
            raise ValueError("reps must be >= 0")


def _check_keys(data, names, label: str):
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a JSON object")
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown {label} key(s): {', '.join(unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """An int or float that is neither NaN nor beyond the float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _complex(value) -> complex:
    """A finite number, or an [re, im] pair of them."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(_is_finite(v) for v in parts):
        raise ValueError(f"expected a finite number or [re, im], got {value!r}")
    return complex(*parts)


def _normalized(coeffs, label):
    try:
        norm = np.sqrt(sum(abs(c) ** 2 for c in coeffs))
    except OverflowError:  # finite parts whose squares overflow a float
        norm = float("inf")
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"{label}: coefficients are not normalized (norm {norm})")
    if abs(norm - 1.0) > 1e-10:
        warnings.warn(f"{label}: renormalizing coefficients (norm {norm})")
    return [c / norm for c in coeffs]


def _bell_type_state(fields: dict, n: int, label: str) -> GeneralizedBellTypeState:
    default = 1 / np.sqrt(2)
    alpha = _complex(fields.get("alpha", [default, 0.0]))
    beta = _complex(fields.get("beta", [default, 0.0]))
    alpha, beta = _normalized([alpha, beta], label)
    x = fields.get("x", 0)
    if not _is_int(x):
        raise ValueError(f"{label}: x must be an integer, got {x!r}")
    return GeneralizedBellTypeState(n, x, alpha, beta)


def load_config(args) -> ExperimentConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.config}: JSON nested too deeply") from None
    _check_keys(data, [f.name for f in fields(ExperimentConfig)], "config")
    for key in ("shots", "seed", "reps", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if getattr(args, "calibration", None) is not None:
        data["noise"] = args.calibration
    if getattr(args, "scheme", None) is not None:
        data["scheme"] = args.scheme
    return ExperimentConfig(**data)


def _noise_model(config: ExperimentConfig):
    if config.noise is None:
        return None
    path = packaged_calibration_path() if config.noise == "builtin" else config.noise
    records = load_calibration(path)
    return build_noise_model(records, DurationConfig(**config.durations))


def _state_doc(state) -> list:
    """[re, im] per amplitude; the same floats, signed zeros included."""
    return np.ascontiguousarray(state.amplitudes).view(float).reshape(-1, 2).tolist()


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
                "output_amplitudes": _state_doc(b.output),
                "fidelity_vs_ideal": round(overlap(b.output, ideal), 12),
            }
        )
    return docs


def cmd_run(config: ExperimentConfig) -> dict:
    if config.noise is not None and config.scheme != "two_bell":
        raise ValueError(f"the noisy run is defined for the two_bell scheme, not {config.scheme}")
    report = None
    if config.scheme == "general_two_qubit":
        coeffs = config.coefficients or [[1, 0], [0, 0], [0, 0], [0, 0]]
        coeffs = _normalized([_complex(c) for c in coeffs], "coefficients")
        ideal = StateVector(2, np.array(coeffs, dtype=complex))
        branches, report = teleport_two_qubit_general(ideal)
    else:
        chi_a = _bell_type_state(config.input_a, config.m, "input_a")
        chi_b = _bell_type_state(config.input_b, config.m + 1, "input_b")
        ideal = tensor(chi_a.to_statevector(), chi_b.to_statevector())
        if config.scheme == "cluster5":
            if config.m != 1:
                raise ValueError("the cluster5 baseline is defined for m = 1")
            branches = cluster_channel_teleport(chi_a, chi_b)
        else:
            branches, report = multi_output_teleport(chi_a, chi_b)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "run",
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
        doc["resources"] = {"channel_qubits": 5, "channel": "five_qubit_cluster"}

    if config.scheme == "two_bell":
        qa, _ = compress_ghz_class(chi_a)
        qb, _ = compress_ghz_class(chi_b)
        circuit = experiment_circuit(qa, qb)
        counts = sample_counts(circuit, config.shots, config.seed)
        doc["ideal"] = {
            "histogram": experiments.marginal_counts(
                counts, circuit.measured, protocols.EXPERIMENT_OUTPUT_BITS
            ),
            "fidelity_percent": 100.0,
        }
        nm = _noise_model(config)
        if nm is not None:
            # The noisy run simulates the routed |+>,|+> experiment only.
            for label, q in (("input_a", qa), ("input_b", qb)):
                if overlap(plus_state(), q) < 1 - 1e-9:
                    raise ValueError(f"{label} does not compress to |+>, the noisy run's input")
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
            noisy_doc["classical_limit_percent"] = round(100 * CLASSICAL_LIMIT, 6)
            doc["noisy"] = noisy_doc
    return doc


def cmd_tomography(config: ExperimentConfig, exact: bool = False) -> dict:
    if exact and config.noise is not None:
        raise ValueError("exact tomography is noiseless; it takes no calibration")
    ideal = experiments.ideal_output_state()
    nm = _noise_model(config)
    if exact:
        rho = tomography_from_state(ideal)
    elif nm is None:
        rho = tomography_from_state(ideal, shots=config.shots, seed=config.seed)
    else:
        rho, _ = experiments.noisy_experiment(nm).tomography(config.shots, config.seed)
    fid = fidelity(to_density(ideal), rho)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "tomography",
        "mode": "exact" if exact else ("ideal_sampled" if nm is None else "noisy"),
        "shots": None if exact else config.shots,
        "seed": config.seed,
        "density_matrix": {
            "real": [[round(v, 12) for v in row] for row in rho.entries.real.tolist()],
            "imag": [[round(v, 12) for v in row] for row in rho.entries.imag.tolist()],
        },
        "fidelity_percent": round(100 * fid, 6),
        "classical_limit_percent": round(100 * CLASSICAL_LIMIT, 6),
    }


def cmd_stats(values_path) -> dict:
    values = []
    with open(values_path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = float(line)
                if not np.isfinite(value):
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {line_no}: expected a finite number, got {line!r}") from None
            values.append(value)
    if len(values) < 2:
        raise ValueError("need >= 2 values")
    stats = fidelity_stats(values)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "stats",
        "values": list(stats.values),
        "mean": round(stats.mean, 6),
        "sample_std": round(stats.sample_std, 6),
    }


def cmd_route(circuit_path, graph_path=None) -> dict:
    with open(circuit_path) as fh:
        circuit = from_text(fh.read())
    graph = load_coupling_graph(graph_path) if graph_path else casablanca_topology()
    layout, routed, report = route(circuit, graph)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "route",
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
        raise ValueError("compare is a noiseless comparison; it takes no calibration")
    chi_a = _bell_type_state(config.input_a, 1, "input_a")
    chi_b = _bell_type_state(config.input_b, 2, "input_b")
    two_bell, report = multi_output_teleport(chi_a, chi_b)
    cluster = cluster_channel_teleport(chi_a, chi_b)
    by_bits = {b.outcome_bits: b.output for b in cluster}
    worst = min([1.0] + [overlap(b.output, by_bits[b.outcome_bits]) for b in two_bell])
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "equivalent": bool(worst > 1 - 1e-10),
        "min_branch_fidelity": round(worst, 12),
        "resources": {
            "two_bell": {
                "bell_pairs": report.bell_pairs,
                "channel_qubits": report.channel_qubits,
            },
            "cluster5": {"channel_qubits": 5},
        },
    }


def _write_histogram_csv(doc: dict, path: str):
    hist = doc.get("noisy", {}).get("histogram") or doc.get("ideal", {}).get("histogram")
    if hist is None:
        raise ValueError("document has no histogram to export")
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["outcome", "count"])
        for outcome in sorted(hist):
            writer.writerow([outcome, hist[outcome]])


def _block(items: list, depth: int, brackets: str = "[]") -> str:
    """A nonempty JSON list or object at nesting ``depth``, one item a line."""
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


@functools.lru_cache(maxsize=32)  # list lengths vary with the input
def _grid_template(rows: int, cols: int, depth: int) -> str:
    """The text of a float list (``rows`` = 0) or a rows x cols grid at
    nesting ``depth``, with one ``%r`` per float."""
    row = _block(["%r"] * cols, depth + 1 if rows else depth)
    return _block([row] * rows, depth) if rows else row


def _float_grid(v: list, depth: int) -> str | None:
    """``v`` formatted in one ``%`` call when it is a list of floats or of
    equal-length lists of floats; None otherwise."""
    rows, cols, flat = 0, len(v), v
    if type(v[0]) is list:
        if {*map(type, v)} != {list} or len({*map(len, v)}) != 1:
            return None
        rows, cols, flat = len(v), len(v[0]), [*itertools.chain.from_iterable(v)]
    if {*map(type, flat)} != {float}:
        return None
    text = _grid_template(rows, cols, depth) % tuple(flat)
    # repr spells nan and inf, which JSON writes as NaN and Infinity.
    return None if "n" in text else text


def _dumps(value, depth: int = 0) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, with
    float lists and grids formatted in one call.  Keys must be str."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [json.dumps(k) + ": " + _dumps(value[k], depth + 1) for k in sorted(value)]
        return _block(items, depth, "{}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        text = _float_grid(value, depth) if type(value) is list else None
        return text or _block([_dumps(x, depth + 1) for x in value], depth)
    return json.dumps(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobell",
        description="Multi-output teleportation experiments over two Bell pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--shots", type=int, help=f"default {DEFAULT_SHOTS}")
        p.add_argument("--seed", type=int)
        p.add_argument(
            "--calibration",
            help="calibration CSV path, or 'builtin' for the packaged table",
        )
        p.add_argument("--reps", type=int, help="repetitions for fidelity stats")
        p.add_argument("--out", help="write the JSON document here")
        p.add_argument("--workers", type=int, help="ignored; kept for old command lines")

    p_run = sub.add_parser("run", help="run a teleportation scheme")
    common(p_run)
    p_run.add_argument("--scheme", choices=SCHEMES)
    p_run.add_argument("--csv", help="also export the histogram as CSV")

    p_tomo = sub.add_parser("tomography", help="reconstruct the output state")
    common(p_tomo)
    p_tomo.add_argument(
        "--exact", action="store_true", help="use exact expectations (no shots)"
    )

    p_stats = sub.add_parser("stats", help="fidelity statistics from a values file")
    p_stats.add_argument(
        "values", nargs="?", default=None, help="one value per line; default: packaged 10-run list"
    )
    p_stats.add_argument("--out")

    p_route = sub.add_parser("route", help="route a circuit file onto a coupling graph")
    p_route.add_argument("circuit", help="circuit text file")
    p_route.add_argument("--graph", help="edge-list file; default: built-in 7-qubit graph")
    p_route.add_argument("--out")

    p_cmp = sub.add_parser("compare", help="two-Bell scheme vs the cluster baseline")
    common(p_cmp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args)
            doc = cmd_run(config)
            if getattr(args, "csv", None):
                _write_histogram_csv(doc, args.csv)
        elif args.command == "tomography":
            doc = cmd_tomography(load_config(args), exact=args.exact)
        elif args.command == "stats":
            path = args.values if args.values else packaged_fidelities_path()
            doc = cmd_stats(path)
        elif args.command == "route":
            doc = cmd_route(args.circuit, args.graph)
        elif args.command == "compare":
            doc = cmd_compare(load_config(args))
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        text = _dumps(doc) + "\n"
        out = getattr(args, "out", None)
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
