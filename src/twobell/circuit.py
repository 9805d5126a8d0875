"""Gate-level circuits with exact branch-enumerating execution.

Measurement never samples here: ``walk``, the one step loop of both
engines, carries every live branch as one row of a stack, forks each row
per outcome and keeps exact probabilities; ``run_exact`` stacks raw
amplitudes and makes one ``qstate.apply_matrix`` call (the noise engine's
kernel too) per gate, whatever the branch count, and checks each returned
state once.  Shot noise only enters through ``sample_counts``, which
draws from the walk's exact distribution with a seeded numpy PCG64
generator (``np.random.default_rng(seed)``), bit-reproducible per seed.

A circuit is a list of two kinds of step: a ``Gate``, which may carry a
classical control (apply only when ``bit`` reads 1), and a
``Measure`` of one qubit into one named bit.  Both report their qubits as
``targets`` and move to other qubits with ``on``.  A circuit is checked
as each step is added (qubit range, every bit named by a ``str``, and
every control bit written by an earlier measurement), and records in
``measured`` the qubit that each bit reads; ``walk`` and every other
reader trust it, and no gate is checked again when the circuit runs.

Circuit text (``to_text``, ``from_text``) has one step per line: at
most one ``qubits 6`` header (otherwise the count is inferred from the
indices), gates such as ``H 0`` and ``CNOT 0 1`` (H X Y Z S CNOT SWAP),
``M 3 -> c0`` to measure qubit 3 into bit c0, and ``X 5 if c0`` to apply
a gate when bit c0 reads 1.  CUSTOM gates, and bit names that are empty
or hold whitespace or ``#``, have no text form.  ``numbered_lines`` skips
the ``#`` comments of circuit, coupling-graph (``transpile``) and
``stats`` files; ``read_lines`` and ``CircuitParseError`` (``line N: ...``)
serve the calibration reader (``channels.load_calibration``) too.
"""

from __future__ import annotations

import io
from typing import NamedTuple

import numpy as np

from .qstate import (GATE_MATRICES, StateVector, apply_matrix, basis_state, check_distinct,
                     check_qubits, check_unitary)

GATE_ARITY = {kind: len(u).bit_length() - 1 for kind, u in GATE_MATRICES.items()}
SWAP_CNOTS = 3  # a SWAP decomposes to 3 CNOTs on hardware


class Gate:
    """A gate on ``targets``; ``matrix`` for CUSTOM only, a read-only copy of
    the one given; ``bit`` a classical control: apply when it reads 1, None
    always.  Its repr evaluates back to an equal gate (where numpy's
    ``array`` is in scope, for a CUSTOM matrix)."""

    __slots__ = ("kind", "targets", "matrix", "bit")

    def __init__(self, kind: str, targets, matrix=None, bit: str | None = None):
        targets = tuple(targets)
        arity = len(targets) if kind == "CUSTOM" else GATE_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(targets) != arity:
            raise ValueError(f"{kind} takes {arity} target(s), got {len(targets)}")
        check_distinct(targets)
        if kind == "CUSTOM":
            if matrix is None:
                raise ValueError("CUSTOM gate needs a matrix")
            matrix = check_unitary(np.array(matrix, dtype=complex), len(targets))
            matrix.setflags(write=False)
        self.kind, self.targets, self.matrix, self.bit = kind, targets, matrix, bit

    def __repr__(self):
        return (f"Gate(kind={self.kind!r}, targets={self.targets!r}, matrix={self.matrix!r}, "
                f"bit={self.bit!r})")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        same = (self.kind, self.targets, self.bit) == (other.kind, other.targets, other.bit)
        return same and (self.matrix is other.matrix or np.array_equal(self.matrix, other.matrix))

    def unitary(self) -> np.ndarray:
        return self.matrix if self.kind == "CUSTOM" else GATE_MATRICES[self.kind]

    def fires(self, bits: dict) -> bool:
        """Whether the gate applies on a branch with these bit values."""
        return self.bit is None or bits.get(self.bit) == 1

    def on(self, qubits) -> Gate:
        """This gate with each target q moved to ``qubits[q]``."""
        return Gate(self.kind, [qubits[q] for q in self.targets], self.matrix, self.bit)


class Measure(NamedTuple):
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
        if (measures or step.bit is not None) and not isinstance(step.bit, str):
            raise TypeError(f"classical bit {step.bit!r} is not a str")
        if not measures and step.bit is not None and step.bit not in self.measured:
            raise ValueError(f"classical bit {step.bit!r} read before it is written")
        check_qubits(step.targets, self.num_qubits)
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
        self.cnot(q1, q2)
        self.h(q1)
        self.measure(q1, bit1)
        self.measure(q2, bit2)
        return self

    def bell_pair(self, a, b):
        """H(a), then CNOT(a->b): |phi+> on (a, b) from |00>."""
        return self.h(a).cnot(a, b)


class BranchEntry(NamedTuple):
    bits: str  # classical bit values in first-write order
    probability: float
    state: StateVector


class BranchDistribution(NamedTuple):
    entries: tuple  # of BranchEntry, lexicographic by bits

    def probabilities(self) -> dict:
        """Outcome -> probability; branches that end with the same bits
        (a bit written more than once) are summed."""
        return summed((e.bits, e.probability) for e in self.entries)


def summed(pairs) -> dict:
    """Key -> the sum of its values, added in the given order from int 0,
    so that integer counts stay ``int``."""
    out = {}
    for key, value in pairs:
        out[key] = out.get(key, 0) + value
    return out


PRUNE = 1e-12  # measurement outcomes of at most this weight are dropped


def walk(steps, states, apply, project, settle):
    """Run the sequence ``steps`` (a circuit's, trusted as built) on all
    live branches at once: a stack of rows, first the rows of ``states``,
    each with no bits and probability 1; the one step loop of both engines.
    ``walk`` owns each row's bits and probability, ``PRUNE`` and the fork
    order (a measurement splits each row into outcome 0, then 1); the
    engine owns the stack.  Of a step that is not a ``Measure`` it reads
    only ``fires(bits)``, so an engine may walk a circuit's steps with
    steps of its own among them.  ``apply(states, gate, fires)`` returns
    the next stack, ``fires[i]`` saying whether row i's control reads 1
    (true without one); ``project(states, qubit)`` returns each row's
    weights of outcomes 0 and 1 (rows x 2) and the unnormalized posts in
    fork order; ``settle(posts, kept, weights)`` returns the posts at
    indices ``kept`` (weight above ``PRUNE``), each normalized by its
    weight.  Returns [(bits by name, probability)] per row, and the stack."""
    rows = [({}, 1.0)] * len(states)
    for step in steps:
        if isinstance(step, Measure):
            weights, states = project(states, step.qubit)  # posts; the old rows are freed
            forks = [(2 * i + outcome, {**bits, step.bit: outcome}, p, w)
                     for i, ((bits, p), ws) in enumerate(zip(rows, weights))
                     for outcome, w in enumerate(ws) if w > PRUNE]
            states = settle(states, [f[0] for f in forks], [f[3] for f in forks])
            rows = [(bits, p * w) for _, bits, p, w in forks]
        else:
            states = apply(states, step, [step.fires(bits) for bits, _ in rows])
    return rows, states


def step_qubits(c: Circuit):
    """Each step of ``c`` with the set of qubits it joins: its targets, and
    for a controlled gate also the qubit whose measurement last wrote its bit."""
    writer = {}
    for step in c.steps:
        qubits = set(step.targets)
        if isinstance(step, Measure):
            writer[step.bit] = step.qubit
        elif step.bit is not None:
            qubits.add(writer[step.bit])
        yield step, qubits


def legs(c: Circuit) -> list:
    """The legs of ``c``: the classes of the qubits its steps join
    (``step_qubits``), each a sorted tuple, in order of their lowest qubit.
    No gate or control connects two legs, so from a product state each
    leg's qubits evolve on their own."""
    leg = {q: {q} for q in range(c.num_qubits)}
    for _, qubits in step_qubits(c):
        joined = set().union(*(leg[q] for q in qubits))
        leg.update(dict.fromkeys(joined, joined))
    return sorted({tuple(sorted(s)) for s in leg.values()})


def _project(states: np.ndarray, qubit: int):
    """Each row's weights of ``qubit`` reading 0 and 1, each a contiguous
    |amp|^2 sum, and the rows with the other value zeroed, in fork order."""
    rows = len(states)
    t = states.reshape(rows, 2 ** qubit, 2, -1)
    posts = np.zeros((rows, 2, *t.shape[1:]), dtype=complex)
    weights = np.empty((rows, 2))
    for outcome in (0, 1):
        weights[:, outcome] = (np.abs(t[:, :, outcome]) ** 2).reshape(rows, -1).sum(axis=1)
        posts[:, outcome, :, outcome] = t[:, :, outcome]
    return weights.tolist(), posts.reshape(2 * rows, -1)


def exact_walk(c: Circuit, initial: np.ndarray | None = None):
    """``walk`` on a (branches, 2^n) amplitude stack, from the rows of the
    checked (rows, 2^n) stack ``initial`` (default one row, |0...0>):
    [(bit string, probability)] per row in fork order, and the stack."""
    n = c.num_qubits
    states = basis_state(n, 0).amplitudes[None] if initial is None else initial
    if states.shape[1] != 2 ** n:
        raise ValueError("initial state qubit count does not match circuit")

    def apply(states, gate, fires):
        if all(fires):
            return apply_matrix(states, gate.unitary(), gate.targets, n)
        out = states.copy()  # the kernel runs on the rows that fire only
        out[fires] = apply_matrix(states[fires], gate.unitary(), gate.targets, n)
        return out

    rows, states = walk(c.steps, states, apply, _project,
                        lambda posts, kept, weights: posts[kept] / np.sqrt(weights)[:, None])
    return [("".join(str(bits[b]) for b in c.measured), p) for bits, p in rows], states


def run_exact(c: Circuit, initial: StateVector | None = None) -> BranchDistribution:
    """Execute exactly, forking one branch per outcome: those of weight at most
    ``PRUNE`` are dropped, the rest ordered by bits (first-write bit order).
    Each weight is the |amp|^2 sum in logical (C) order.  Only the returned
    states are checked, once."""
    rows, states = exact_walk(c, None if initial is None else initial.amplitudes[None])
    entries = [BranchEntry(bits, p, StateVector(c.num_qubits, t)) for (bits, p), t in zip(rows, states)]
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
    The probabilities come straight from the walk; no state is built.
    """
    return sample_distribution(summed(exact_walk(c)[0]), shots, seed)


# -- text files ---------------------------------------------------------------


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_lines(path):
    """The lines, ends kept, of UTF-8 text file ``path``; one with a byte not
    UTF-8 (read as a lone surrogate) ends in ``line N: not UTF-8 text``."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and line.encode(errors="ignore").decode() != line:
                raise CircuitParseError(line_no, "not UTF-8 text")
            yield line



def numbered_lines(lines):
    """(line number, text) of each line not blank once its ``#`` comment is cut."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def parse_int(tok: str, line_no: int) -> int:
    """``int(tok)``, or a ``line N: expected integer`` error for a text file."""
    try:
        return int(tok)
    except ValueError:
        raise CircuitParseError(line_no, f"expected integer, got {tok!r}") from None


def to_text(c: Circuit) -> str:
    lines = [f"qubits {c.num_qubits}"]
    for step in c.steps:
        if step.bit is not None and (step.bit.split() != [step.bit] or "#" in step.bit):
            raise ValueError(f"bit name {step.bit!r} has no text form")
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


def from_text(text: str) -> Circuit:
    steps = []  # (line number, step)
    num_qubits = None

    # Lines end at \n, \r\n or \r only, as ``read_lines`` reads a file.
    for line_no, line in numbered_lines(io.StringIO(text, newline="")):
        toks = line.split()
        head = toks[0].upper()
        if head == "QUBITS":
            if num_qubits is not None:
                raise CircuitParseError(line_no, "repeated qubits header")
            if len(toks) != 2:
                raise CircuitParseError(line_no, "usage: qubits N")
            num_qubits = parse_int(toks[1], line_no)
            if num_qubits < 1:
                raise CircuitParseError(line_no, "num_qubits must be >= 1")
            continue
        if head == "M":
            if len(toks) != 4 or toks[2] != "->":
                raise CircuitParseError(line_no, "usage: M <qubit> -> <bit>")
            steps.append((line_no, Measure(parse_int(toks[1], line_no), toks[3])))
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

    max_qubit = max((q for _, step in steps for q in step.targets), default=-1)
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
