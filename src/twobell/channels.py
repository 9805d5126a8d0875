"""Calibration-driven noise: CSV ingestion, Kraus channel construction,
and density-matrix execution of circuits (``noisy_distribution``, which
runs the branch walker ``circuit.walk`` on density matrices).

The ``NoiseModel.*_kraus`` constructors build each channel's superoperator
as the product S(second) @ S(first) of its stages'; ``NoiseModel.channel``
caches them, and every gate, channel and projector is one ``apply_superop``.

Model summary, per gate on a calibrated device:

* amplitude damping with p = 1 - exp(-t / T1),
* pure dephasing at rate max(0, 1/T2 - 1/(2 T1)) over the gate duration,
  realized as a phase-flip channel,
* a depolarizing channel whose average gate infidelity equals the
  reported Pauli-X / CNOT error (uniform over nontrivial Paulis with
  probability p = err * (d + 1) / d),
* symmetric per-qubit readout confusion with flip probability equal to
  the reported readout assignment error.

Idle qubits decay through every step they sit out.  Idle channels are local
and idle(s) then idle(t) = idle(s + t), so each qubit owes its idle time and
pays it as one channel before its next gate or measurement, or at the end.
Gate durations are not part of the calibration table; the defaults
below are typical for this device family and are overridable.

Light cone: circuit qubit i takes the noise of calibrated qubit
``qubits[i]``, so a circuit can run on only the qubits that can change
its output; idles are local, trace-preserving and fix |0><0|, so
dropping the others is exact.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate, sample_distribution, walk
from .qstate import (GATE_MATRICES, PAULI, DensityMatrix, apply_superop, pauli_labels,
                     pauli_operator, superop)

CSV_HEADER = ["qubit", "t1_us", "t2_us", "freq_ghz", "readout_err", "x_err", "cnot_errs"]


@dataclass(frozen=True)
class CalibrationRecord:
    qubit: int
    t1_us: float
    t2_us: float
    frequency_ghz: float
    readout_error: float
    pauli_x_error: float
    cnot_errors: dict  # neighbor qubit -> error

    def __post_init__(self):
        if not (self.t1_us > 0 and self.t2_us > 0):  # also rejects NaN
            raise ValueError(
                f"qubit {self.qubit}: T1 and T2 must be positive, got {self.t1_us}, {self.t2_us}"
            )
        if self.t2_us > 2 * self.t1_us + 1e-6:
            raise ValueError("T2 must not exceed 2*T1")
        for p in [self.readout_error, self.pauli_x_error, *self.cnot_errors.values()]:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} out of [0, 1]")


@dataclass(frozen=True)
class DurationConfig:
    single_qubit_gate_ns: float = 35.5
    cnot_ns: float = 300.0
    readout_ns: float = 1500.0

    def __post_init__(self):
        if min(self.single_qubit_gate_ns, self.cnot_ns, self.readout_ns) <= 0:
            raise ValueError("durations must be positive")


class CalibrationError(ValueError):
    pass


def _parse_cnot_tokens(raw: str, row_qubit: int) -> dict:
    out = {}
    raw = raw.strip()
    if not raw:
        return out
    for token in raw.split(";"):
        token = token.strip()
        try:
            name, value = token.split(":")
            if not name.startswith("cx"):
                raise ValueError
            i, j = name[2:].split("_")
            i, j = int(i), int(j)
            err = float(value)
        except ValueError:
            raise CalibrationError(f"unparsable CNOT token {token!r}") from None
        if row_qubit not in (i, j):
            raise CalibrationError(
                f"CNOT token {token!r} does not involve qubit {row_qubit}"
            )
        out[j if i == row_qubit else i] = err
    return out


def load_calibration(path) -> list:
    """Read calibration records from CSV (see CSV_HEADER for the format).

    CNOT entries are completed symmetrically: cx0_1 under qubit 0 also
    registers under qubit 1.  T2 > 2*T1 is clamped with a warning.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != CSV_HEADER:
            raise CalibrationError(
                f"bad header: expected {','.join(CSV_HEADER)}, got {reader.fieldnames}"
            )
        rows = list(reader)
    if not rows:
        raise CalibrationError("no records")

    parsed = []
    for row in rows:
        if any(row[k] is None for k in CSV_HEADER):
            raise CalibrationError(f"missing column in row {row}")
        q = int(row["qubit"])
        t1 = float(row["t1_us"])
        t2 = float(row["t2_us"])
        # A non-positive or NaN T1 is left for CalibrationRecord to reject unclamped.
        if t1 > 0 and t2 > 2 * t1:
            warnings.warn(f"qubit {q}: T2={t2} > 2*T1={2 * t1}, clamping")
            t2 = 2 * t1
        parsed.append(
            dict(
                qubit=q,
                t1_us=t1,
                t2_us=t2,
                frequency_ghz=float(row["freq_ghz"]),
                readout_error=float(row["readout_err"]),
                pauli_x_error=float(row["x_err"]),
                cnot_errors=_parse_cnot_tokens(row["cnot_errs"], q),
            )
        )

    # Symmetric completion across rows.
    by_qubit = {p["qubit"]: p for p in parsed}
    for p in parsed:
        for nb, err in p["cnot_errors"].items():
            if nb in by_qubit:
                by_qubit[nb]["cnot_errors"].setdefault(p["qubit"], err)
    return [CalibrationRecord(**p) for p in parsed]


# -- Kraus constructors ------------------------------------------------------


def amplitude_damping_kraus(p: float) -> list:
    return [
        np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
        np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex),
    ]


def phase_flip_kraus(p: float) -> list:
    return [np.sqrt(1 - p) * PAULI["I"], np.sqrt(p) * PAULI["Z"]]


def depolarizing_kraus(p: float, num_qubits: int) -> list:
    """Uniform Pauli channel: identity with prob 1-p, each nontrivial
    Pauli with prob p / (d^2 - 1)."""
    d = 2 ** num_qubits
    paulis = [np.sqrt(p / (d ** 2 - 1)) * pauli_operator(l) for l in pauli_labels(num_qubits)]
    return [np.sqrt(1 - p) * np.eye(d, dtype=complex), *paulis]


def depolarizing_strength(gate_error: float, num_qubits: int) -> float:
    """Map average gate infidelity to the uniform-Pauli probability:
    p = err * (d + 1) / d."""
    d = 2 ** num_qubits
    return min(1.0, gate_error * (d + 1) / d)


@dataclass(frozen=True)
class NoiseModel:
    """Immutable per-qubit noise parameters compiled from calibration."""

    t1_ns: dict
    t2_ns: dict
    x_depol: dict  # qubit -> depolarizing probability for 1q gates
    cnot_depol: dict  # frozenset({a, b}) -> depolarizing probability
    confusion: dict  # qubit -> 2x2 column-stochastic matrix, P(read r | true t)
    durations: DurationConfig = field(default_factory=DurationConfig)
    # (constructor name, *args) -> superoperator; filled by ``channel``.
    _superops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def qubits(self):
        return set(self.t1_ns)

    def channel(self, build: str, *args) -> np.ndarray:
        """Superoperator ``self.<build>(*args)``, ``build`` naming one of the
        ``*_kraus`` constructors; built once per model, then cached."""
        key = (build, *args)
        if key not in self._superops:
            self._superops[key] = getattr(self, build)(*args)
        return self._superops[key]

    def idle_kraus(self, qubit: int, duration_ns: float) -> np.ndarray:
        """Amplitude damping then dephasing over the given duration."""
        t1, t2 = self.t1_ns[qubit], self.t2_ns[qubit]
        p_amp = 1.0 - np.exp(-duration_ns / t1)
        rate_phi = max(0.0, 1.0 / t2 - 1.0 / (2.0 * t1))
        p_flip = 0.5 * (1.0 - np.exp(-rate_phi * duration_ns))
        return superop(phase_flip_kraus(p_flip)) @ superop(amplitude_damping_kraus(p_amp))

    def single_gate_kraus(self, qubit: int) -> np.ndarray:
        decay = self.idle_kraus(qubit, self.durations.single_qubit_gate_ns)
        return superop(depolarizing_kraus(self.x_depol[qubit], 1)) @ decay

    def cnot_gate_kraus(self, a: int, b: int) -> np.ndarray:
        key = frozenset((a, b))
        if key not in self.cnot_depol:
            raise CalibrationError(f"no CNOT calibration for qubits {a}, {b}")
        sa, sb = (self.idle_kraus(q, self.durations.cnot_ns).reshape([2] * 4) for q in (a, b))
        # Row-major vec of a two-qubit rho is indexed (row a, row b, col a, col b).
        decay = np.einsum("ijkl,mnop->imjnkolp", sa, sb).reshape(16, 16)
        return superop(depolarizing_kraus(self.cnot_depol[key], 2)) @ decay


def ideal_noise_model(num_qubits: int, durations: DurationConfig | None = None) -> NoiseModel:
    """A noise model with no decoherence, gate error, or readout error."""
    qubits = range(num_qubits)
    return NoiseModel(
        t1_ns={q: np.inf for q in qubits},
        t2_ns={q: np.inf for q in qubits},
        x_depol={q: 0.0 for q in qubits},
        cnot_depol={frozenset((a, b)): 0.0 for a in qubits for b in qubits if a < b},
        confusion={q: np.eye(2) for q in qubits},
        durations=durations or DurationConfig(),
    )


def build_noise_model(records, durations: DurationConfig | None = None) -> NoiseModel:
    durations = durations or DurationConfig()
    t1 = {r.qubit: r.t1_us * 1000.0 for r in records}
    t2 = {r.qubit: r.t2_us * 1000.0 for r in records}
    x_depol = {r.qubit: depolarizing_strength(r.pauli_x_error, 1) for r in records}
    cnot_depol = {frozenset((r.qubit, nb)): depolarizing_strength(err, 2)
                  for r in records for nb, err in r.cnot_errors.items()}
    confusion = {r.qubit: np.array([[1 - r.readout_error, r.readout_error],
                                    [r.readout_error, 1 - r.readout_error]]) for r in records}
    return NoiseModel(t1, t2, x_depol, cnot_depol, confusion, durations)


# -- density-matrix execution -------------------------------------------------

# Superoperators P (x) P of the projectors onto |0> and |1>, U (x) conj(U) of the fixed gates.
_PROJECTORS = (superop([np.diag([1.0, 0.0])]), superop([np.diag([0.0, 1.0])]))
_GATE_SUPEROPS = {kind: superop([u]) for kind, u in GATE_MATRICES.items()}


def noisy_distribution(c: Circuit, nm: NoiseModel, initial_rho: np.ndarray | None = None,
                       qubits=None):
    """Exact outcome distribution over classical bits after readout
    confusion, plus the pre-readout final density matrix of all n qubits.

    The circuit runs through ``circuit.walk`` with one density matrix per
    branch: every gate adds its noise channel and idles the other qubits, a
    gate whose control does not fire idles every qubit for its window,
    and each kept measurement outcome idles every qubit for the readout.
    An idle only adds to the time a qubit owes, which it pays as one idle
    channel just before its next gate or projection, or at the end.
    Circuit qubit i takes the T1, T2, gate errors and readout confusion
    of calibrated qubit ``qubits[i]`` (default: of qubit i).
    """
    n = c.num_qubits
    if n > 7:
        raise ValueError("noisy simulation is limited to 7 qubits")
    cal = tuple(range(n) if qubits is None else qubits)
    if len(cal) != n or len(set(cal)) != n:
        raise ValueError(f"qubits must map each of the {n} circuit qubits to its own qubit")
    missing = set(cal) - nm.qubits()
    if missing:
        raise CalibrationError(f"no calibration for qubit(s) {sorted(missing)}")
    dur = nm.durations

    def pay(rho, owed, qs):
        for q in qs:
            if owed[q]:
                rho = apply_superop(rho, nm.channel("idle_kraus", cal[q], owed[q]), [q], n)
        return rho

    def idle(owed, duration, paid=()):
        return tuple(0.0 if q in paid else t + duration for q, t in enumerate(owed))

    # A SWAP decomposes to 3 CNOTs on hardware: triple duration and error.
    def repeats(gate: Gate):
        return 3 if gate.kind == "SWAP" else 1

    def window(gate: Gate):
        """Time the gate takes, whether or not its control fires."""
        one = dur.single_qubit_gate_ns if len(gate.targets) == 1 else dur.cnot_ns
        return repeats(gate) * one

    def apply_gate(state, gate: Gate):
        rho, owed = state
        targets = list(gate.targets)
        rho = pay(rho, owed, targets)
        u = superop([gate.matrix]) if gate.kind == "CUSTOM" else _GATE_SUPEROPS[gate.kind]
        rho = apply_superop(rho, u, targets, n)
        build = "single_gate_kraus" if len(targets) == 1 else "cnot_gate_kraus"
        noise = nm.channel(build, *(cal[q] for q in targets))
        for _ in range(repeats(gate)):
            rho = apply_superop(rho, noise, targets, n)
        return rho, idle(owed, window(gate), paid=targets)

    def project(state, qubit):
        rho, owed = pay(*state, [qubit]), idle(state[1], 0.0, paid=[qubit])
        for projector in _PROJECTORS:
            sub = apply_superop(rho, projector, [qubit], n)
            yield float(np.trace(sub).real), (sub, owed)

    if initial_rho is None:
        rho0 = np.zeros((2 ** n, 2 ** n), dtype=complex)
        rho0[0, 0] = 1.0
    else:
        rho0 = np.array(initial_rho, dtype=complex)
    branches = walk(
        c,
        (rho0, (0.0,) * n),
        apply=apply_gate,
        skip=lambda state, gate: (state[0], idle(state[1], window(gate))),
        project=project,
        settle=lambda post, w: (post[0] / w, idle(post[1], dur.readout_ns)),
    )
    dist = {}
    for bits, p, _ in branches:
        # Convolve each recorded bit with the confusion matrix of the qubit it reads.
        recorded = [("", p)]
        for name, qubit in c.measured.items():
            true_bit = bits[name]
            conf = nm.confusion[cal[qubit]]
            recorded = [
                (rec + str(r), q * conf[r, true_bit])
                for rec, q in recorded
                for r in (0, 1)
                if conf[r, true_bit] > 0
            ]
        for rec, q in recorded:
            dist[rec] = dist.get(rec, 0.0) + q
    owing = {}  # owed times -> merged rho of the branches that owe them, paid once
    for _, p, (rho, owed) in branches:
        owing[owed] = owing.get(owed, 0.0) + p * rho
    final = sum(pay(rho, owed, range(n)) for owed, rho in owing.items())
    final_dm = DensityMatrix(n, 0.5 * (final + final.conj().T))
    return final_dm, dist
