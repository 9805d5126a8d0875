"""Gate-level circuits with exact branch-enumerating execution.

Measurement never samples here: ``walk``, the one step loop of both
engines, makes one ``project(state, qubit)`` call per branch and
measurement, forks one branch per outcome and carries exact probabilities;
``run_exact`` runs it on raw amplitude arrays with ``qstate.apply_matrix``,
the kernel the noise engine also uses, and checks each returned state
once, so per-branch claims can be verified directly.  Shot noise only
enters through ``sample_counts``, which draws from the exact distribution
with a seeded numpy PCG64 generator (``np.random.default_rng(seed)``),
making counts bit-reproducible for a fixed seed.

Text format (one step per line, ``#`` starts a comment):

    qubits 6          # optional header; otherwise inferred from indices
    H 0
    CNOT 0 1
    M 3 -> c0
    X 5 if c0

Gate names: H X Y Z S CNOT SWAP.  ``M q -> name`` measures one qubit
into a named classical bit.  ``<gate> <targets> if <bit>`` applies the
gate when the named bit reads 1.  CUSTOM gates have no text form.

A circuit is a list of two kinds of step: a ``Gate``, which may carry a
classical control (apply only when ``bit`` reads 1), and a
``Measure`` of one qubit into one named bit.  Both report their qubits as
``targets`` and move to other qubits with ``on``.  A circuit is checked
as each step is added (qubit range, and every control bit written by an
earlier measurement), and records in ``measured`` the qubit that each
bit reads; ``walk`` and every other reader trust it, and no gate is
checked again when the circuit runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import GATE_MATRICES, StateVector, apply_matrix, basis_state, _check_unitary

GATE_ARITY = {kind: len(u).bit_length() - 1 for kind, u in GATE_MATRICES.items()}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple
    matrix: np.ndarray | None = None  # CUSTOM only
    bit: str | None = None  # classical control: apply when it reads 1; None always

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        arity = len(self.targets) if self.kind == "CUSTOM" else GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {len(self.targets)}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits: {list(self.targets)}")
        if self.kind == "CUSTOM":
            if self.matrix is None:
                raise ValueError("CUSTOM gate needs a matrix")
            m = _check_unitary(self.matrix, len(self.targets))
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    def unitary(self) -> np.ndarray:
        return self.matrix if self.kind == "CUSTOM" else GATE_MATRICES[self.kind]

    def fires(self, bits: dict) -> bool:
        """Whether the gate applies on a branch with these bit values."""
        return self.bit is None or bits.get(self.bit) == 1

    def on(self, qubits) -> Gate:
        """This gate with each target q moved to ``qubits[q]``."""
        return Gate(self.kind, [qubits[q] for q in self.targets], self.matrix, self.bit)


@dataclass(frozen=True)
class Measure:
    qubit: int
    bit: str  # classical bit name

    @property
    def targets(self) -> tuple:
        return (self.qubit,)

    def on(self, qubits) -> Measure:
        """This measurement moved to qubit ``qubits[self.qubit]``."""
        return Measure(qubits[self.qubit], self.bit)


class Circuit:
    """Ordered list of gates, each with an optional classical control, and
    one-qubit measurements.  ``measured`` maps each bit name, in
    first-write order, to the qubit its last measurement reads."""

    def __init__(self, num_qubits: int, steps=()):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        self.steps: list = []
        self.measured: dict = {}
        for step in steps:
            self.add(step)

    def __repr__(self):
        # Evaluates back to an equal circuit (CUSTOM matrices print as numpy arrays).
        return f"Circuit({self.num_qubits}, {self.steps!r})"

    # -- builders ----------------------------------------------------------
    def add(self, step):
        """Append ``step`` after checking it against the steps before it."""
        if not isinstance(step, (Gate, Measure)):
            raise TypeError(f"not a circuit step: {step!r}")
        measures = isinstance(step, Measure)
        if not measures and step.bit is not None and step.bit not in self.measured:
            raise ValueError(f"classical bit {step.bit!r} read before it is written")
        for q in step.targets:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        if measures:
            self.measured[step.bit] = step.qubit
        self.steps.append(step)
        return self

    def gate(self, kind, *targets):
        return self.add(Gate(kind, targets))

    def h(self, q):
        return self.gate("H", q)

    def x(self, q):
        return self.gate("X", q)

    def cnot(self, ctrl, tgt):
        return self.gate("CNOT", ctrl, tgt)

    def custom(self, matrix, targets):
        return self.add(Gate("CUSTOM", tuple(targets), np.asarray(matrix)))

    def measure(self, qubit, bit):
        return self.add(Measure(qubit, bit))

    def c_if(self, kind, targets, bit):
        return self.add(Gate(kind, tuple(targets), bit=bit))

    def bell_measure(self, q1, q2, bit1, bit2):
        """CNOT(q1->q2), H(q1), then measure q1 -> bit1 and q2 -> bit2.

        Outcome (b1, b2) names the Bell state of (q1, q2):
        00 -> phi+, 01 -> psi+, 10 -> phi-, 11 -> psi-.
        """
        if q1 == q2:
            raise ValueError("bell_measure needs two distinct qubits")
        self.cnot(q1, q2)
        self.h(q1)
        self.measure(q1, bit1)
        self.measure(q2, bit2)
        return self

    def bell_pair(self, a, b):
        """H(a), then CNOT(a->b): |phi+> on (a, b) from |00>."""
        return self.h(a).cnot(a, b)

    def feed_forward(self, x_bit, z_bit, receivers):
        """Teleportation corrections: X on every receiver qubit if x_bit
        reads 1, then Z on the first if z_bit reads 1."""
        for q in receivers:
            self.c_if("X", (q,), x_bit)
        return self.c_if("Z", (receivers[0],), z_bit)


@dataclass(frozen=True)
class BranchEntry:
    bits: str  # classical bit values in first-write order
    probability: float
    state: StateVector


@dataclass(frozen=True)
class BranchDistribution:
    entries: tuple  # of BranchEntry, lexicographic by bits

    def probabilities(self) -> dict:
        """Outcome -> probability; branches that end with the same bits
        (a bit written more than once) are summed."""
        out = {}
        for e in self.entries:
            out[e.bits] = out.get(e.bits, 0.0) + e.probability
        return out


PRUNE = 1e-12  # measurement outcomes of at most this weight are dropped


def walk(c: Circuit, state, apply, skip, project, settle) -> list:
    """Run ``c`` branch by branch from ``state``; the one step loop of
    both engines.  ``c`` was checked as it was built, so ``walk`` trusts
    it: every control reads a bit that an earlier measurement wrote.

    The caller supplies the physics: ``apply(state, gate)`` and
    ``skip(state, gate)`` (a gate whose control does not fire) return
    the next state; ``project(state, qubit)`` yields the weight and the
    unnormalized post state of outcome 0, then of outcome 1, and
    ``settle(post, weight)`` normalizes those whose weight exceeds ``PRUNE``.
    Returns (bits by name, probability, state) per branch, in fork order:
    each measurement splits every branch into outcome 0, then 1.
    """
    branches = [({}, 1.0, state)]
    for step in c.steps:
        if isinstance(step, Measure):
            branches = [
                ({**bits, step.bit: outcome}, p * w, settle(post, w))
                for bits, p, s in branches
                for outcome, (w, post) in enumerate(project(s, step.qubit)) if w > PRUNE
            ]
        else:
            branches = [
                (bits, p, (apply if step.fires(bits) else skip)(s, step))
                for bits, p, s in branches
            ]
    return branches


def _project(t: np.ndarray, qubit: int):
    for outcome in (0, 1):
        idx = (slice(None),) * qubit + (outcome,)
        post = np.zeros_like(t)
        post[idx] = t[idx]
        yield float(np.sum(np.abs(t[idx]) ** 2)), post


def run_exact(c: Circuit, initial: StateVector | None = None) -> BranchDistribution:
    """Execute exactly, forking one branch per measurement outcome.

    Branches with probability below 1e-12 are dropped; output is ordered
    lexicographically by classical bit values (first-write bit order).
    Only the returned states are checked; ``c`` was checked as it was built.
    """
    n = c.num_qubits
    state = initial if initial is not None else basis_state(n, 0)
    if state.num_qubits != n:
        raise ValueError("initial state qubit count does not match circuit")
    branches = walk(
        c,
        state.amplitudes.reshape([2] * n),
        apply=lambda t, g: apply_matrix(t, g.unitary(), g.targets, n),
        skip=lambda t, g: t,
        project=_project,
        settle=lambda post, p: post / np.sqrt(p),
    )
    entries = [
        BranchEntry("".join(str(bits[b]) for b in c.measured), p, StateVector(n, t))
        for bits, p, t in branches
    ]
    entries.sort(key=lambda e: e.bits)
    return BranchDistribution(tuple(entries))


def sample_distribution(dist: dict, shots: int, seed: int) -> dict:
    """Multinomial counts from an outcome -> probability map, using a
    seeded PCG64 generator."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    outcomes = sorted(dist)
    probs = np.array([dist[o] for o in outcomes])
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs / probs.sum())
    return {o: int(k) for o, k in zip(outcomes, draws) if k > 0}


def sample_counts(c: Circuit, shots: int, seed: int) -> dict:
    """Multinomial shot sampling over the exact branch distribution.

    Reproducible: uses numpy's PCG64 generator seeded with ``seed``.
    """
    return sample_distribution(run_exact(c).probabilities(), shots, seed)


# -- text serialization -----------------------------------------------------


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def to_text(c: Circuit) -> str:
    lines = [f"qubits {c.num_qubits}"]
    for step in c.steps:
        if isinstance(step, Measure):
            lines.append(f"M {step.qubit} -> {step.bit}")
            continue
        if step.kind == "CUSTOM":
            raise ValueError("CUSTOM gates have no text form")
        line = f"{step.kind} {' '.join(map(str, step.targets))}"
        if step.bit is not None:
            line += f" if {step.bit}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_int(tok: str, line_no: int) -> int:
    """``int(tok)``, or a ``line N: expected integer`` error for a text file."""
    try:
        return int(tok)
    except ValueError:
        raise CircuitParseError(line_no, f"expected integer, got {tok!r}") from None


def from_text(text: str) -> Circuit:
    steps = []  # (line number, step)
    num_qubits = None
    max_qubit = -1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0].upper()
        if head == "QUBITS":
            if len(toks) != 2:
                raise CircuitParseError(line_no, "usage: qubits N")
            num_qubits = parse_int(toks[1], line_no)
            if num_qubits < 1:
                raise CircuitParseError(line_no, "num_qubits must be >= 1")
            continue
        if head == "M":
            if len(toks) != 4 or toks[2] != "->":
                raise CircuitParseError(line_no, "usage: M <qubit> -> <bit>")
            q = parse_int(toks[1], line_no)
            max_qubit = max(max_qubit, q)
            steps.append((line_no, Measure(q, toks[3])))
            continue
        if head not in GATE_ARITY:
            raise CircuitParseError(line_no, f"unknown gate {toks[0]!r}")
        cond = None
        body = toks[1:]
        if "if" in [t.lower() for t in body]:
            i = [t.lower() for t in body].index("if")
            if len(body) != i + 2:
                raise CircuitParseError(line_no, "usage: <gate> <targets> if <bit>")
            cond = body[i + 1]
            body = body[:i]
        targets = tuple(parse_int(t, line_no) for t in body)
        try:
            steps.append((line_no, Gate(head, targets, bit=cond)))
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
        max_qubit = max(max_qubit, *targets)

    if max_qubit < 0 and num_qubits is None:
        raise CircuitParseError(1, "empty circuit and no qubits header")
    # The header may follow the steps, so ``add`` checks each step here.
    c = Circuit(num_qubits if num_qubits is not None else max_qubit + 1)
    for line_no, step in steps:
        try:
            c.add(step)
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
    return c
