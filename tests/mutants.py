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
    ("src/twobell/cli.py",
     "bits = value.view(np.uint64)",
     "bits = value",
     "the writer compares rows by value, so a run of -0.0 rows prints 0.0"),
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
