"""Hand-made mutants of twobell, and whether the tier-1 tests kill each one.

Run as ``python tests/mutants.py``; pytest does not collect this file.  Each
row of ``MUTANTS`` is (file, exact old text, new text, what it breaks).  The
old text must occur exactly once in its file, so a refactor that moves the
code fails the table before any test runs.  The unmutated checkout is tested
first, since a failing baseline would make every mutant look killed.  Then
each mutant is applied to a fresh temporary copy of the checkout, and the
tier-1 tests run there with ``-x -q --assert=plain -p no:cacheprovider``
(plain asserts, because rewriting a failed compare of two large texts can
take minutes).  A mutant the tests pass is a survivor: a missing test.  The
script prints one line per mutant and exits 1 if any survives.

Leave out equivalent mutants.  In ``_cluster5``, ``cnot(q[1], q[4])`` ->
``cnot(q[3], q[4])`` prepares the same state, so no test can kill it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = ("-m", "pytest", "-x", "-q", "--assert=plain", "-p", "no:cacheprovider")
TIMEOUT_S = 900

MUTANTS = (
    ("src/twobell/protocols.py",
     'pair = apply_matrix(bob2, GATE_MATRICES["CNOT"], [0, 1], 2)',
     'pair = apply_matrix(bob2, GATE_MATRICES["CNOT"], [1, 0], 2)',
     "the cluster receiver's CNOT runs with control and target swapped"),
    ("src/twobell/protocols.py",
     "teleport_legs(Circuit(6), [(0, 2, (3,)), (1, 4, (5,))])",
     "teleport_legs(Circuit(6), [(1, 2, (3,)), (0, 4, (5,))])",
     "the general scheme's legs teleport each other's input qubit"),
    ("src/twobell/protocols.py",
     "circuit_branches(c, fixed={2: 0})",
     "circuit_branches(c, fixed={2: 1})",
     "the cluster scheme keeps the branch where chi_b's ancilla reads 1"),
    ("src/twobell/protocols.py",
     "return c.cnot(q[0], q[2]).cnot(q[1], q[3])",
     "return c.cnot(q[2], q[0]).cnot(q[1], q[3])",
     "the cluster channel's Bell pair is prepared with its CNOT reversed"),
    ("src/twobell/protocols.py",
     "[(0, 3, (5,)), (1, 4, (6, 7))], shared=True)",
     "[(0, 3, (5,)), (1, 4, (6, 7))], shared=False)",
     "the cluster scheme entangles fresh Bell pairs over the cluster qubits"),
    ("src/twobell/protocols.py",
     "qb_out = project_rows(pair, 2, [1], [[0]] * len(pair))",
     "qb_out = project_rows(pair, 2, [0], [[0]] * len(pair))",
     "the cluster receiver keeps the freed qubit instead of chi_b's one"),
    ("src/twobell/circuit.py",
     'line += f" if {step.bit}"',
     'line += ""',
     "to_text drops a gate's classical control, so it reads back unconditional"),
    ("src/twobell/circuit.py",
     "c = Circuit(num_qubits if num_qubits is not None else max_qubit + 1)",
     "c = Circuit(max_qubit + 1)",
     "from_text ignores the qubits header and counts only the qubits the steps name"),
    ("src/twobell/transpile.py",
     "if u == v or min(u, v) < 0:",
     "if min(u, v) < 0:",
     "load_coupling_graph accepts an edge from a node to itself"),
    ("src/twobell/cli.py",
     "bits = value.view(np.uint64)",
     "bits = value",
     "the writer compares rows by value, so a run of -0.0 rows prints 0.0"),
    ("src/twobell/cli.py",
     'if text and "n" not in text:',
     "if text:",
     "the writer prints an array holding nan or inf by repr, not as NaN or Infinity"),
    ("src/twobell/cli.py",
     "type(item) in (int, float)",
     "isinstance(item, (int, float))",
     "the writer prints bools and int or float subclasses by repr"),
    # The router's branch-and-bound.
    ("src/twobell/transpile.py",
     "floor + SWAP_CNOTS * (hops - 1)",
     "floor + SWAP_CNOTS * hops",
     "a layout's lower bound counts one SWAP hop too many"),
    ("src/twobell/transpile.py",
     "if d > 1), 1)",
     "if d > 2), 1)",
     "a gate two hops apart is taken as embedded in the lower bound"),
    ("src/twobell/transpile.py",
     "(best[0][0] - floor) // SWAP_CNOTS",
     "(best[0][0] - floor) // SWAP_CNOTS - 1",
     "the SWAP budget of a routed layout is one short of the best cost"),
    ("src/twobell/transpile.py",
     "bound > best[0][0]",
     "bound >= best[0][0]",
     "the search stops at a layout whose bound ties the best cost"),
    # The noise engine and the tomography projection.
    ("src/twobell/channels.py",
     "rate_phi = max(0.0, 1.0 / t2 - 1.0 / (2.0 * t1))",
     "rate_phi = max(0.0, 1.0 / t2 - 1.0 / t1)",
     "pure dephasing runs at 1/T2 - 1/T1 instead of 1/T2 - 1/(2 T1)"),
    ("src/twobell/channels.py",
     "return superop(depolarizing_kraus(self.x_depol[qubit], 1)) @ decay",
     "return decay @ superop(depolarizing_kraus(self.x_depol[qubit], 1))",
     "a one-qubit gate's depolarizing error comes before its decay, not after"),
    ("src/twobell/channels.py",
     "return [(posts[i][0] / w, idle(posts[i][1], dur.readout_ns)) for i, w in zip(kept, weights)]",
     "return [(posts[i][0] / w, idle(posts[i][1], 0.0)) for i, w in zip(kept, weights)]",
     "a kept outcome idles no qubit for the readout"),
    ("src/twobell/channels.py",
     'return SWAP_CNOTS if gate.kind == "SWAP" else 1',
     "return 1",
     "a SWAP costs one CNOT's duration and error instead of three"),
    ("src/twobell/channels.py",
     "one = dur.single_qubit_gate_ns if len(gate.targets) == 1 else dur.cnot_ns",
     "one = dur.cnot_ns if len(gate.targets) == 1 else dur.single_qubit_gate_ns",
     "one- and two-qubit gates take each other's time window"),
    ("src/twobell/channels.py",
     "_Wait(dur.readout_ns if isinstance(step, Measure) else window(step))",
     "_Wait(0.0 if isinstance(step, Measure) else window(step))",
     "a leg waits no time while the other leg reads out"),
    ("src/twobell/channels.py",
     'np.einsum("ijkl,mnop->imjnkolp", sa, sb)',
     'np.einsum("ijkl,mnop->imjnkolp", sb, sa)',
     "a CNOT's decay gives each qubit the other's T1 and T2"),
    ("src/twobell/tomography.py",
     "    w /= w.sum()\n",
     "",
     "reconstruct clips negative eigenvalues but does not renormalize the trace"),
    # The calibration reader.
    ("src/twobell/channels.py",
     'cells["t2_us"] = 2 * t1',
     "pass",
     "T2 > 2*T1 is warned about but not clamped"),
    ("src/twobell/channels.py",
     "records[nb].cnot_errors.setdefault(r.qubit, err)",
     "records[nb].cnot_errors[r.qubit] = err",
     "the symmetric completion overwrites the CNOT error a row lists for its own pair"),
    ("src/twobell/channels.py",
     "if q in lines:",
     "if False:",
     "a second row for a qubit silently replaces the first"),
)


def tier1(root: Path):
    """(exit code, seconds) of the tier-1 tests in checkout ``root``."""
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, *PYTEST], cwd=root, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def in_copy(mutant=None):
    """``tier1`` on a fresh temporary copy of the checkout, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="twobell-mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        if mutant:
            path, old, new, _ = mutant
            (root / path).write_text((root / path).read_text().replace(old, new))
        return tier1(root)


def main() -> int:
    for path, old, _, _ in MUTANTS:  # a stale row fails before any test runs
        if (count := (ROOT / path).read_text().count(old)) != 1:
            raise SystemExit(f"{path}: the old text occurs {count} times, not once: {old!r}")
    code, seconds = in_copy()
    if code != 0:
        print(f"the unmutated tests fail (exit {code}, {seconds:.1f} s); no mutant can be judged")
        return 2
    print(f"baseline: tier-1 passes in {seconds:.1f} s", flush=True)
    survivors = []
    for i, mutant in enumerate(MUTANTS, start=1):
        code, seconds = in_copy(mutant)
        verdict = "SURVIVED" if code == 0 else "timed out" if code is None else "killed"
        print(f"{i}. {verdict} in {seconds:.1f} s: {mutant[0]}: {mutant[3]}", flush=True)
        if code == 0:
            survivors.append(i)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed"
          + (f"; survivors: {', '.join(map(str, survivors))}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
