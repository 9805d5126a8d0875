"""Write the reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose output is known to be right.  The
paper_noisy reference is the exact stdout of the paper's command for the
default seed.  The route_mix reference is the optimal cnot_count of each
slot of the cycle, which is the same under every seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, GRAPHS, PAPER_ARGV, PAPER_REFERENCE, ROUTE_REFERENCE, route_sources

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    PAPER_REFERENCE.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), "--t0", "0", "--",
           *PAPER_ARGV, "--seed", str(DEFAULT_SEED)]
    paper = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    PAPER_REFERENCE.write_text(paper.stdout)

    sys.path.insert(0, str(ROOT / "src"))
    from twobell.circuit import from_text
    from twobell.transpile import CouplingGraph, route

    counts = {}
    for slot, text, graph in route_sources(DEFAULT_SEED):
        edges = frozenset(frozenset(e) for e in GRAPHS[graph])
        counts[slot] = route(from_text(text), CouplingGraph(7, edges))[2].cnot_count
    ROUTE_REFERENCE.write_text(json.dumps({"cnot_count": [counts[s] for s in sorted(counts)]}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
