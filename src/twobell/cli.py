"""Command-line experiment runner.

Subcommands: ``run``, ``tomography``, ``stats``, ``route``, ``compare``.
Every command emits one JSON document to stdout or ``--out``, byte-identical
for the same config and seed: ``main`` adds the envelope (``schema_version``
and ``command``) to what ``cmd_<command>`` returns, and ``_dumps`` writes it,
in text byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``.
Fidelities are reported in percent at the CLI surface.

A config is checked once, by ``ExperimentConfig``, and each error names
its JSON path (``input_a.alpha: …``).  ``tomography`` and the noisy run
take only inputs that compress to |+>; ``compare`` is defined for m = 1.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import itertools
import json
import sys
import warnings
from importlib import resources

import numpy as np

from . import experiments, protocols
from .channels import DurationConfig, build_noise_model, load_calibration
from .circuit import from_text, numbered_lines, read_lines, sample_counts, to_text
from .protocols import (
    GeneralizedBellTypeState,
    cluster_channel_teleport,
    compress_ghz_class,
    experiment_circuit,
    multi_output_teleport,
    teleport_two_qubit_general,
)
from .qstate import StateVector, plus_state, tensor
from .tomography import fidelity_stats, overlap, pure_fidelity, tomography_from_state
from .transpile import casablanca_topology, load_coupling_graph, route

SCHEMA_VERSION = 1
CLASSICAL_LIMIT = 2.0 / 3.0
DEFAULT_SHOTS = 8192
MAX_SHOTS = 2 ** 63 - 1  # numpy's multinomial takes a signed 64-bit count
MAX_M = 8  # the run document grows 4x per step of m: ~105 MB at m = 8

SCHEMES = ("two_bell", "cluster5", "general_two_qubit")
INPUT_KEYS = ("x", "alpha", "beta")
INF = float("inf")
_encode_str = json.encoder.encode_basestring_ascii  # json.dumps' own str writer
# Each integer field's inclusive bounds.  workers is ignored, so any integer does.
INT_BOUNDS = {"m": (1, MAX_M), "shots": (1, MAX_SHOTS), "seed": (0, INF), "reps": (0, INF),
              "workers": (-INF, INF)}


def packaged_calibration_path():
    return resources.files("twobell.data") / "casablanca_2021-12-01.csv"


def packaged_fidelities_path():
    return resources.files("twobell.data") / "paper_fidelities.txt"


# The config's JSON keys, ``ExperimentConfig``'s parameters, in the order that errors list them.
CONFIG_KEYS = ("scheme", "m", "input_a", "input_b", "coefficients", "shots", "seed", "noise",
               "durations", "reps", "workers")


class ExperimentConfig:
    """The config's JSON fields, each checked whatever the command, with its
    JSON path in every error, and the values the commands read, built once.
    ``coefficients`` is read by general_two_qubit only, ``noise`` is None or a
    calibration CSV path, and ``workers`` is ignored, accepted so that older
    configs still load.  The dict defaults are only read, so sharing them is safe."""

    def __init__(self, scheme="two_bell", m=1, input_a={}, input_b={}, coefficients=None,
                 shots=DEFAULT_SHOTS, seed=0, noise=None, durations={}, reps=1, workers=1):
        self.scheme, self.m, self.shots, self.seed, self.noise = scheme, m, shots, seed, noise
        self.durations, self.reps, self.workers = durations, reps, workers
        for name, (low, high) in INT_BOUNDS.items():
            value = getattr(self, name)
            if not (_is_int(value) and low <= value <= high):
                raise ValueError(f"{name}: expected an integer in [{low}, {high}], got {value!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: expected one of {', '.join(SCHEMES)}, got {self.scheme!r}")
        if self.noise is not None and not isinstance(self.noise, str):
            raise ValueError(f"noise: expected a calibration path or 'builtin', got {self.noise!r}")
        _check_keys(self.durations, DurationConfig._fields, "durations")
        for name, value in self.durations.items():
            if not (_is_finite(value) and value > 0):
                raise ValueError(f"durations.{name}: expected a positive number, got {value!r}")
        self.chi_a = _bell_type_state(input_a, m, "input_a")
        self.chi_b = _bell_type_state(input_b, m + 1, "input_b")
        if coefficients is not None and not (isinstance(coefficients, list) and len(coefficients) == 4):
            raise ValueError(f"coefficients: expected a list of 4 amplitudes, got {coefficients!r}")
        coeffs = [_complex(c, f"coefficients[{i}]")
                  for i, c in enumerate(coefficients or [[1, 0], [0, 0], [0, 0], [0, 0]])]
        self.general_input = StateVector(2, np.array(_normalized(coeffs, "coefficients"), complex))


def _check_keys(data, names, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {', '.join(unknown)}; expected {', '.join(names)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """An int or float that is neither NaN nor beyond the float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _complex(value, path: str) -> complex:
    """A finite number, or an [re, im] pair of them."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(_is_finite(v) for v in parts):
        raise ValueError(f"{path}: expected a finite number or [re, im], got {value!r}")
    return complex(*parts)


def _normalized(coeffs, path):
    try:
        norm = np.sqrt(sum(abs(c) ** 2 for c in coeffs))
    except OverflowError:  # finite parts whose squares overflow a float
        norm = INF
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"{path}: amplitudes are not normalized (norm {norm})")
    if abs(norm - 1.0) > 1e-10:
        warnings.warn(f"{path}: renormalizing amplitudes (norm {norm})")
    return [c / norm for c in coeffs]


def _bell_type_state(data, n: int, path: str) -> GeneralizedBellTypeState:
    _check_keys(data, INPUT_KEYS, path)
    x = data.get("x", 0)
    if not (_is_int(x) and 0 <= x < 2 ** n):
        raise ValueError(f"{path}.x: expected an integer in [0, {2 ** n - 1}], got {x!r}")
    default = [1 / np.sqrt(2), 0.0]
    amplitudes = [_complex(data.get(k, default), f"{path}.{k}") for k in ("alpha", "beta")]
    return GeneralizedBellTypeState(n, x, *_normalized(amplitudes, path))


def load_config(args) -> ExperimentConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.config}: JSON nested too deeply") from None
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{args.config}: {exc}") from None
    _check_keys(data, CONFIG_KEYS, args.config)
    for flag in ("shots", "seed", "reps", "workers", "noise", "scheme"):
        value = getattr(args, flag, None)
        if value is not None:  # a flag overrides the config
            data[flag] = value
    return ExperimentConfig(**data)


def _noise_model(config: ExperimentConfig):
    if config.noise is None:
        return None
    path = packaged_calibration_path() if config.noise == "builtin" else config.noise
    try:
        records = load_calibration(path)
    except OSError as exc:
        raise ValueError(f"noise: {exc}") from None
    return build_noise_model(records, DurationConfig(**config.durations))


def _check_plus_inputs(config: ExperimentConfig, command: str) -> list:
    """Tomography and the noisy run simulate the routed two_bell |+>,|+>
    experiment only.  Returns the inputs' ``compress_ghz_class`` results."""
    if config.scheme != "two_bell":
        raise ValueError(f"scheme: {command} is defined for two_bell, not {config.scheme}")
    compressed = [compress_ghz_class(chi) for chi in (config.chi_a, config.chi_b)]
    for path, q in zip(("input_a", "input_b"), compressed):
        if overlap(plus_state(), q) < 1 - 1e-9:
            raise ValueError(f"{path}: does not compress to |+>, the only input {command} takes")
    return compressed


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
    # Each two_bell input is compressed once, for the check, the run and the histogram.
    compressed = None if config.noise is None else _check_plus_inputs(config, "the noisy run")
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
        doc["resources"] = {"channel_qubits": protocols.CLUSTER_QUBITS,
                            "channel": "five_qubit_cluster"}

    if config.scheme == "two_bell":
        circuit = experiment_circuit(*compressed)
        counts = sample_counts(circuit, config.shots, config.seed)
        doc["ideal"] = {
            "histogram": experiments.marginal_counts(
                counts, circuit.measured, protocols.EXPERIMENT_OUTPUT_BITS
            ),
            "fidelity_percent": 100.0,
        }
        nm = _noise_model(config)
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
            noisy_doc["classical_limit_percent"] = round(100 * CLASSICAL_LIMIT, 6)
            doc["noisy"] = noisy_doc
    return doc


def cmd_tomography(config: ExperimentConfig, exact: bool = False) -> dict:
    if exact and config.noise is not None:
        raise ValueError("noise: exact tomography is noiseless; it takes no calibration")
    _check_plus_inputs(config, "tomography")
    ideal = experiments.ideal_output_state()
    nm = _noise_model(config)
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
            "real": [[round(v, 12) for v in row] for row in rho.entries.real.tolist()],
            "imag": [[round(v, 12) for v in row] for row in rho.entries.imag.tolist()],
        },
        "fidelity_percent": round(100 * fid, 6),
        "classical_limit_percent": round(100 * CLASSICAL_LIMIT, 6),
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
    if len(values) < 2:
        raise ValueError("need >= 2 values")
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
            "cluster5": {"channel_qubits": protocols.CLUSTER_QUBITS},
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
        items = [_encode_str(k) + ": " + _dumps(value[k], depth + 1) for k in sorted(value)]
        return _block(items, depth, "{}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        text = _float_grid(value, depth) if type(value) is list else None
        return text or _block([_dumps(x, depth + 1) for x in value], depth)
    if type(value) is str:
        return _encode_str(value)
    if type(value) in (int, float) and abs(value) < INF:
        return type(value).__repr__(value)
    return json.dumps(value)  # bool, None, NaN, infinities, numpy scalars, subclasses


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
            "--calibration", dest="noise", metavar="CALIBRATION",
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
        text = _dumps({**doc, "schema_version": SCHEMA_VERSION, "command": args.command}) + "\n"
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
