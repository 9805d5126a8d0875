"""The text formats: circuits (``to_text``, ``from_text``) and coupling
graphs (``load_coupling_graph``).  Both read lines with ``#`` comments
(``numbered_lines``) and report a bad line as ``line N: ...``
(``CircuitParseError``).

Circuit text format (one step per line):

    qubits 6          # optional header; otherwise inferred from indices
    H 0
    CNOT 0 1
    M 3 -> c0
    X 5 if c0

Gate names: H X Y Z S CNOT SWAP.  ``M q -> name`` measures one qubit
into a named classical bit.  ``<gate> <targets> if <bit>`` applies the
gate when the named bit reads 1.  CUSTOM gates have no text form.

A coupling graph file has one ``u v`` edge per line.
"""

from __future__ import annotations

import io

from .circuit import GATE_ARITY, Circuit, CircuitParseError, Gate, Measure, read_lines
from .transpile import CouplingGraph


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


def from_text(text: str) -> Circuit:
    steps = []  # (line number, step)
    num_qubits = None

    # Lines end at \n, \r\n or \r only, as ``read_lines`` reads a file.
    for line_no, line in numbered_lines(io.StringIO(text, newline="")):
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


def load_coupling_graph(path) -> CouplingGraph:
    """Edge-list text file, one ``u v`` pair per line; # starts a comment."""
    edges = set()
    for line_no, line in numbered_lines(read_lines(path)):
        parts = line.split()
        if len(parts) != 2:
            raise CircuitParseError(line_no, f"expected 'u v', got {line!r}")
        u, v = (parse_int(tok, line_no) for tok in parts)
        if u == v or min(u, v) < 0:
            raise CircuitParseError(line_no, f"expected two distinct nodes >= 0, got {line!r}")
        edges.add(frozenset((u, v)))
    if not edges:
        raise ValueError("empty graph file")
    return CouplingGraph(max(map(max, edges)) + 1, frozenset(edges))
