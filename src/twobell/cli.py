"""Command-line experiment runner.

Subcommands: ``run``, ``tomography``, ``stats``, ``route``, ``compare``.
Every command emits one JSON document to stdout or ``--out``, byte-identical
for the same config and seed: ``main`` adds the envelope (``schema_version``
and ``command``) to what ``cmd_<command>`` returns, and ``_write`` writes it,
in text byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)`` with
its float64 arrays as lists.
Fidelities are reported in percent at the CLI surface.

``cmd_run`` is here; the other commands are in ``twobell.commands``, which
``main`` imports on first use.  This module imports every module that
``run`` uses when it is loaded, ``protocols`` with all three of its schemes;
the experiment's rules are in ``experiments``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import experiments
from .config import DEFAULT_SHOTS, INF, SCHEMES, ExperimentConfig, load_config
from .protocols import (CLUSTER_QUBITS, cluster_channel_teleport, compress_ghz_class,
                        multi_output_teleport, teleport_two_qubit_general)
from .qstate import tensor
from .tomography import fidelity_stats, overlap

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring_ascii  # json.dumps' own str writer
_ROW_RUNS_FROM = 64  # a grid of fewer rows is formatted in one call, which is faster there (CHANGES.md)


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


@functools.lru_cache(maxsize=32)  # array shapes vary with the input
def _grid_template(shape: tuple, depth: int) -> str:
    """The text of a nonempty float array of ``shape`` (a vector or a grid)
    at nesting ``depth``, with one ``%r`` per float."""
    pad = "\n" + "  " * depth
    item = _grid_template(shape[1:], depth + 1) if shape[1:] else "%r"
    return "[" + pad + "  " + ("," + pad + "  ").join([item] * shape[0]) + pad + "]"


def _write(value, out: list, depth: int = 0) -> None:
    """Append the text of ``json.dumps(value, indent=2, sort_keys=True)`` to
    ``out`` in pieces, a float64 array's as one piece.  Keys must be str."""
    pad = "\n" + "  " * depth
    if type(value) is np.ndarray:
        if value.ndim == 2 and len(value) >= _ROW_RUNS_FROM and value.size:
            row = "," + pad + "  " + _grid_template(value.shape[1:], depth + 1)  # a row after its comma
            bits = value.view(np.uint64)  # compared by bits: a row holding -0.0 keeps its own text
            # The first row of each run of equal rows, which is formatted once for the run.
            starts = [0, *dict.fromkeys((np.nonzero(bits[1:] != bits[:-1])[0] + 1).tolist())]
            ends = [*starts[1:], len(value)]
            text = "".join([row % tuple(floats) * (end - start)
                            for start, end, floats in zip(starts, ends, value[starts].tolist())])
            text = "[" + text[1:] + pad + "]"
        else:
            text = value.size and _grid_template(value.shape, depth) % tuple(value.ravel().tolist())
        # repr spells nan and inf, which JSON writes as NaN and Infinity.
        if text and "n" not in text:
            return out.append(text)
        value = value.tolist()  # written item by item, below
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items, brackets = [(_encode_str(k) + ": ", value[k]) for k in sorted(value)], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [("", x) for x in value], "[]"
    else:  # a scalar at the top; a dict's or a list's str, int and finite float are written below
        return out.append(json.dumps(value))
    for i, (head, item) in enumerate(items):
        head = ("," if i else brackets[0]) + pad + "  " + head
        if type(item) is str:
            out.append(head + _encode_str(item))
        elif type(item) in (int, float) and abs(item) < INF:
            out.append(head + type(item).__repr__(item))
        else:  # bool, None, NaN, infinities, numpy scalars, subclasses, arrays and containers
            out.append(head)
            _write(item, out, depth + 1)
    out.append(pad + brackets[1] if items else brackets)


def _dumps(value) -> str:
    out = []
    _write(value, out)
    return "".join(out)


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
        if args.command != "run" or args.csv:
            from . import commands  # the other commands and the CSV export load on first use
        csv_text = None
        if args.command == "run":
            doc = cmd_run(load_config(args))
            if args.csv:  # looked up now, so a missing histogram ends the command before any write
                csv_text = commands.histogram_csv(doc)
        elif args.command == "tomography":
            doc = commands.cmd_tomography(load_config(args), exact=args.exact)
        elif args.command == "stats":
            path = args.values if args.values else commands.packaged_fidelities_path()
            doc = commands.cmd_stats(path)
        elif args.command == "route":
            doc = commands.cmd_route(args.circuit, args.graph)
        elif args.command == "compare":
            doc = commands.cmd_compare(load_config(args))
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        pieces = []  # the whole document, before any of it is written
        _write({**doc, "schema_version": SCHEMA_VERSION, "command": args.command}, pieces)
        pieces.append("\n")
        out = getattr(args, "out", None)
        if out:
            with open(out, "w") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # so that a closed pipe raises here, not as the process exits
        if csv_text is not None:  # exported only once the document is written
            with open(args.csv, "w", newline="") as fh:
                fh.write(csv_text)
    except BrokenPipeError:  # a closed pipe, as in `twobell run | head -1`: exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # stdout's rest is dropped at exit
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
