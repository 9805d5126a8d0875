"""The experiment config: its JSON fields, their checks and their defaults.

A config is checked once, by ``ExperimentConfig``, and each error names
its JSON path (``input_a.alpha: …``).  ``load_config`` reads the JSON
file of ``--config`` and lets each command-line flag override its field.
"""

from __future__ import annotations

import json
import sys
import warnings

import numpy as np

from .calibration import load_calibration, packaged_calibration_path
from .channels import DurationConfig, build_noise_model
from .protocols import GeneralizedBellTypeState
from .qstate import StateVector

DEFAULT_SHOTS = 8192
MAX_SHOTS = 2 ** 63 - 1  # numpy's multinomial takes a signed 64-bit count
MAX_M = 8  # the run document grows 4x per step of m: at m = 8, ~105 MB, ~0.6 s and ~181 MB peak RSS

SCHEMES = ("two_bell", "cluster5", "general_two_qubit")
INPUT_KEYS = ("x", "alpha", "beta")
INF = float("inf")
# Each integer field's inclusive bounds.  workers is ignored, so any integer does.
INT_BOUNDS = {"m": (1, MAX_M), "shots": (1, MAX_SHOTS), "seed": (0, INF), "reps": (0, INF),
              "workers": (-INF, INF)}

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

    def noise_model(self):
        """The ``NoiseModel`` of ``noise`` and ``durations``; None without noise."""
        if self.noise is None:
            return None
        path = packaged_calibration_path() if self.noise == "builtin" else self.noise
        try:
            records = load_calibration(path)
        except OSError as exc:
            raise ValueError(f"noise: {exc}") from None
        return build_noise_model(records, DurationConfig(**self.durations))


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
