"""Calibration-driven noise: CSV ingestion of one device's per-qubit noise
parameters (the calibration table), Kraus channel construction from its
records (``build_noise_model``), and density-matrix execution of circuits
(``noisy_distribution``, which runs the branch walker ``circuit.walk`` on
density matrices).

The table's header is ``CSV_HEADER``: qubit, T1 and T2 in microseconds,
frequency in GHz, readout and Pauli-X errors, and the CNOT errors as
``;``-separated ``cx<i>_<j>:<error>`` tokens that name the row's qubit.
``load_calibration`` checks each cell as it reads it and returns one
``CalibrationRecord`` per qubit.

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

Legs: circuit qubit q takes the noise of calibrated qubit q.  Idles are
local, trace-preserving and fix |0><0|, so a circuit whose qubits fall
into legs that nothing connects can run one leg at a time, and a leg
that cannot change the output need not run at all.
"""

from __future__ import annotations

import csv
import warnings
from importlib import resources
from typing import NamedTuple

import numpy as np

from .circuit import (SWAP_CNOTS, Circuit, CircuitParseError, Gate, Measure, read_lines,
                      sample_distribution, step_qubits, summed, walk)
from .qstate import (GATE_MATRICES, PAULI, DensityMatrix, apply_superop, check_qubits, pauli_labels,
                     pauli_operator, superop)


class CalibrationRecord(NamedTuple):
    """One qubit's row of a calibration table, fields in column order."""

    qubit: int
    t1_us: float
    t2_us: float
    frequency_ghz: float
    readout_error: float
    pauli_x_error: float
    cnot_errors: dict  # neighbor qubit -> error


class CalibrationError(ValueError):
    pass


def packaged_calibration_path():
    return resources.files("twobell.data") / "casablanca_2021-12-01.csv"


def _qubit(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a qubit index >= 0, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:  # also rejects NaN
        raise ValueError(f"expected a positive number, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} out of [0, 1]")
    return value


# The parser of each column's cells but cnot_errs'; a bad cell raises ValueError.
_CELL_PARSERS = {"qubit": _qubit, "t1_us": _positive, "t2_us": _positive, "freq_ghz": float,
                 "readout_err": _probability, "x_err": _probability}
CSV_HEADER = [*_CELL_PARSERS, "cnot_errs"]


def _parse_cnot_tokens(raw: str, row_qubit: int, tokens: dict) -> dict:
    """The row's CNOT errors by neighbor; ``tokens[row_qubit, nb]`` gets each token."""
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
            i, j = map(int, name[2:].split("_"))
        except ValueError:
            raise CalibrationError(f"unparsable CNOT token {token!r}") from None
        if row_qubit not in (i, j):
            raise CalibrationError(f"CNOT token {token!r} does not involve qubit {row_qubit}")
        nb = j if i == row_qubit else i
        if nb == row_qubit or nb < 0:
            raise CalibrationError(f"CNOT token {token!r} needs a qubit >= 0 other than {row_qubit}")
        if nb in out:
            raise CalibrationError(f"CNOT token {token!r} repeats qubit {nb} on this row")
        out[nb], tokens[row_qubit, nb] = _probability(value), token
    return out


def load_calibration(path) -> list:
    """Read calibration records from CSV (see CSV_HEADER for the format).

    Each cell is checked as it is read; a bad one is reported as
    ``line N, <column>: ...``, a line that is not UTF-8 as ``line N: not
    UTF-8 text``; a second row for a qubit, and a CNOT token that names a
    qubit with no row, are errors.
    CNOT entries are completed symmetrically: cx0_1 under qubit 0 also
    registers under qubit 1, unless qubit 1's row lists the pair itself.
    T2 > 2*T1 is clamped with a warning.
    """
    records, lines, tokens = {}, {}, {}  # by qubit: its record and its row's line; by pair: its token
    try:
        reader = csv.DictReader(read_lines(path))
        header = reader.fieldnames = [f.strip() for f in reader.fieldnames or []]
        if header != CSV_HEADER:
            raise CalibrationError(f"line 1: bad header; expected {','.join(CSV_HEADER)}")
        for row in reader:
            line = reader.line_num
            if None in row or None in row.values():
                raise CalibrationError(f"line {line}: expected {len(CSV_HEADER)} cells")
            cells = {}
            try:
                for column, parse in _CELL_PARSERS.items():
                    cells[column] = parse(row[column])
                column = "cnot_errs"
                cells[column] = _parse_cnot_tokens(row[column], cells["qubit"], tokens)
            except ValueError as exc:
                raise CalibrationError(f"line {line}, {column}: {exc}") from None
            q, t1, t2 = cells["qubit"], cells["t1_us"], cells["t2_us"]
            if q in lines:
                raise CalibrationError(f"line {line}: qubit {q} repeats line {lines[q]}")
            if t2 > 2 * t1:
                warnings.warn(f"qubit {q}: T2={t2} > 2*T1={2 * t1}, clamping")
                cells["t2_us"] = 2 * t1
            lines[q], records[q] = line, CalibrationRecord(*cells.values())
    except CircuitParseError as exc:  # a line that is not UTF-8
        raise CalibrationError(str(exc)) from None
    if not records:
        raise CalibrationError("no records")

    # Symmetric completion across rows.
    for r in records.values():
        for nb, err in r.cnot_errors.items():
            if nb not in records:
                raise CalibrationError(f"line {lines[r.qubit]}, cnot_errs: CNOT token "
                                       f"{tokens[r.qubit, nb]!r} names qubit {nb}, which has no row")
            records[nb].cnot_errors.setdefault(r.qubit, err)
    return list(records.values())


class DurationConfig(NamedTuple):
    """Gate and readout durations in ns; a config's are checked positive as it is read."""

    single_qubit_gate_ns: float = 35.5
    cnot_ns: float = 300.0
    readout_ns: float = 1500.0


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


class NoiseModel:
    """Per-qubit noise parameters compiled from calibration, and the
    superoperators built from them."""

    __slots__ = ("t1_ns", "t2_ns", "x_depol", "cnot_depol", "confusion", "durations", "_superops")

    def __init__(self, t1_ns: dict, t2_ns: dict, x_depol: dict, cnot_depol: dict, confusion: dict,
                 durations: DurationConfig | None = None):
        self.t1_ns, self.t2_ns = t1_ns, t2_ns
        self.x_depol = x_depol  # qubit -> depolarizing probability for 1q gates
        self.cnot_depol = cnot_depol  # frozenset({a, b}) -> depolarizing probability
        self.confusion = confusion  # qubit -> 2x2 column-stochastic matrix, P(read r | true t)
        self.durations = durations or DurationConfig()
        self._superops = {}  # (constructor name, *args) -> superoperator; filled by ``channel``

    def channel(self, build: str, *args) -> np.ndarray:
        """Superoperator ``self.<build>(*args)``, ``build`` naming one of the
        ``*_kraus`` constructors; built once per model, then cached."""
        key = (build, *args)
        if key not in self._superops:
            self._superops[key] = getattr(self, build)(*args)
        return self._superops[key]

    def idle_kraus(self, qubit: int, duration_ns: float) -> np.ndarray:
        """Amplitude damping then dephasing over the given duration.  A zero
        rate (infinite T1, or T2 = 2*T1) applies none, even over an infinite
        duration, where 0 * inf and inf / inf would be NaN."""
        t1, t2 = self.t1_ns[qubit], self.t2_ns[qubit]
        p_amp = 0.0 if t1 == np.inf else 1.0 - np.exp(-duration_ns / t1)
        rate_phi = max(0.0, 1.0 / t2 - 1.0 / (2.0 * t1))
        p_flip = 0.0 if rate_phi == 0 else 0.5 * (1.0 - np.exp(-rate_phi * duration_ns))
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


def ideal_noise_model(num_qubits: int) -> NoiseModel:
    """A noise model with no decoherence, gate error, or readout error."""
    qubits = range(num_qubits)
    return NoiseModel(
        t1_ns={q: np.inf for q in qubits},
        t2_ns={q: np.inf for q in qubits},
        x_depol={q: 0.0 for q in qubits},
        cnot_depol={frozenset((a, b)): 0.0 for a in qubits for b in qubits if a < b},
        confusion={q: np.eye(2) for q in qubits},
    )


def build_noise_model(records, durations: DurationConfig | None = None) -> NoiseModel:
    t1 = {r.qubit: r.t1_us * 1000.0 for r in records}
    t2 = {r.qubit: r.t2_us * 1000.0 for r in records}
    x_depol = {r.qubit: depolarizing_strength(r.pauli_x_error, 1) for r in records}
    # One error per unordered pair: where both of its rows list it, the later row's wins.
    cnot_depol = {frozenset((r.qubit, nb)): depolarizing_strength(err, 2)
                  for r in records for nb, err in r.cnot_errors.items()}
    confusion = {r.qubit: np.array([[1 - r.readout_error, r.readout_error],
                                    [r.readout_error, 1 - r.readout_error]]) for r in records}
    return NoiseModel(t1, t2, x_depol, cnot_depol, confusion, durations)


# -- density-matrix execution -------------------------------------------------

# Superoperators P (x) P of the projectors onto |0> and |1>, U (x) conj(U) of the fixed gates.
_PROJECTORS = (superop([np.diag([1.0, 0.0])]), superop([np.diag([0.0, 1.0])]))
_GATE_SUPEROPS = {kind: superop([u]) for kind, u in GATE_MATRICES.items()}


class _Wait:
    """A step of another leg, in a leg's walk: it never fires, so every
    qubit of the leg idles through its window of ``ns``."""

    def __init__(self, ns: float):
        self.ns = ns

    def fires(self, bits) -> bool:
        return False


def noisy_distribution(c: Circuit, nm: NoiseModel, initial_rho: np.ndarray | None = None,
                       leg=None):
    """Exact outcome distribution over classical bits after readout
    confusion, plus the pre-readout final density matrix of the qubits of
    ``leg`` (default all n qubits, the one-leg case), in ``leg``'s order.

    The circuit runs through ``circuit.walk`` on a list of (density matrix,
    owed idle times), one per branch: every gate adds its noise channel and
    idles the other qubits, a gate whose control does not fire idles every
    qubit for its window, and each kept outcome idles every qubit for the readout.
    An idle only adds to the time a qubit owes, which it pays as one idle
    channel just before its next gate or projection, or at the end.
    Circuit qubit q takes the T1, T2, gate errors and readout confusion
    of calibrated qubit q; only the leg's qubits need a calibration.

    A leg is a set of qubits that no gate and no classical control connects
    to the others (see ``circuit.legs``); one that a step crosses raises
    ValueError naming the step.  Rho holds the leg's qubits only, at most 7,
    from ``initial_rho`` over them (default |0...0>), and the distribution
    reads the leg's bits only.  Each step of another leg is an idle window of
    that step's length for the leg's qubits, a measurement a readout
    window with no fork.  From a product state the legs evolve as a
    product, so this is the marginal of the whole circuit's run.
    """
    n = c.num_qubits
    leg = tuple(range(n) if leg is None else check_qubits(leg, n))
    local = {q: i for i, q in enumerate(leg)}  # circuit qubit -> its axis in rho
    if not leg or len(local) != len(leg):
        raise ValueError("a leg must name one or more distinct qubits")
    if len(leg) > 7:
        raise ValueError(f"noisy simulation is limited to 7 qubits, and the leg has {len(leg)}")
    missing = local.keys() - nm.t1_ns.keys()
    if missing:
        raise CalibrationError(f"no calibration for qubit(s) {sorted(missing)}")
    k, dur = len(leg), nm.durations

    def pay(rho, owed, axes):
        for a in axes:
            if owed[a]:
                rho = apply_superop(rho, nm.channel("idle_kraus", leg[a], owed[a]), [a], k)
        return rho

    def idle(owed, duration, paid=()):
        return tuple(0.0 if q in paid else t + duration for q, t in enumerate(owed))

    # A SWAP runs as SWAP_CNOTS CNOTs: that many times the duration and error.
    def repeats(gate: Gate):
        return SWAP_CNOTS if gate.kind == "SWAP" else 1

    def window(gate):
        """Time the gate takes, whether or not its control fires."""
        if isinstance(gate, _Wait):
            return gate.ns
        one = dur.single_qubit_gate_ns if len(gate.targets) == 1 else dur.cnot_ns
        return repeats(gate) * one

    def apply_gate(state, gate: Gate):
        rho, owed = state
        targets = [local[q] for q in gate.targets]
        rho = pay(rho, owed, targets)
        u = superop([gate.matrix]) if gate.kind == "CUSTOM" else _GATE_SUPEROPS[gate.kind]
        rho = apply_superop(rho, u, targets, k)
        build = "single_gate_kraus" if len(targets) == 1 else "cnot_gate_kraus"
        noise = nm.channel(build, *gate.targets)
        for _ in range(repeats(gate)):
            rho = apply_superop(rho, noise, targets, k)
        return rho, idle(owed, window(gate), paid=targets)

    def apply(states, gate, fires):
        return [apply_gate(s, gate) if f else (s[0], idle(s[1], window(gate)))
                for s, f in zip(states, fires)]

    def project(states, qubit):
        q = local[qubit]
        paid = ((pay(rho, owed, [q]), idle(owed, 0.0, paid=[q])) for rho, owed in states)
        posts = [(apply_superop(rho, p, [q], k), owed) for rho, owed in paid for p in _PROJECTORS]
        traces = [float(np.trace(sub).real) for sub, _ in posts]
        return list(zip(traces[::2], traces[1::2])), posts

    def settle(posts, kept, weights):
        return [(posts[i][0] / w, idle(posts[i][1], dur.readout_ns)) for i, w in zip(kept, weights)]

    steps = []
    for i, (step, joined) in enumerate(step_qubits(c)):
        inside = joined & local.keys()
        if inside and inside != joined:
            raise ValueError(f"step {i} ({step}) crosses the leg {leg}")
        steps.append(step if inside else
                     _Wait(dur.readout_ns if isinstance(step, Measure) else window(step)))
    if initial_rho is None:
        rho0 = np.zeros((2 ** k, 2 ** k), dtype=complex)
        rho0[0, 0] = 1.0
    else:
        rho0 = np.array(initial_rho, dtype=complex)
        if rho0.shape != (2 ** k, 2 ** k):
            raise ValueError(f"initial_rho has shape {rho0.shape}, but the leg {leg} needs "
                             f"{2 ** k}x{2 ** k}")
    rows, states = walk(steps, [(rho0, (0.0,) * k)], apply, project, settle)
    readings = []
    for bits, p in rows:
        # Convolve each recorded bit of the leg with the confusion matrix of the qubit it reads.
        recorded = [("", p)]
        for name, qubit in c.measured.items():
            if qubit not in local:
                continue
            true_bit = bits[name]
            conf = nm.confusion[qubit]
            recorded = [
                (rec + str(r), q * conf[r, true_bit])
                for rec, q in recorded
                for r in (0, 1)
                if conf[r, true_bit] > 0
            ]
        readings += recorded
    dist = summed(readings)
    # owed times -> merged rho of the branches that owe them, paid once
    owing = summed((owed, p * rho) for (_, p), (rho, owed) in zip(rows, states))
    final = sum(pay(rho, owed, range(k)) for owed, rho in owing.items())
    final_dm = DensityMatrix(k, 0.5 * (final + final.conj().T))
    return final_dm, dist
