"""Stdout stays byte-identical: the sha256 of every document the benchmark's
exact workload prints, and of the paper's noisy run, against a manifest.

The manifest covers every op of ``perfbench/workloads.exact_cycle`` for
seeds 0-11, and ``run --calibration builtin --reps 10 --seed s`` for s = 0
and 1.  Each document is keyed ``<workload>/<seed>/<position>/<op kind>``.
A change that moves output rewrites the manifest on purpose, with

    PYTHONPATH=src python tests/test_stdout_manifest.py

and names the documents that moved.  The manifest also records the numpy
version it was written with: the sampled documents depend on the bits of
``Generator.multinomial``, which a numpy upgrade may move.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from twobell.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "golden" / "stdout_sha256.json"
EXACT_SEEDS = range(12)
PAPER_SEEDS = (0, 1)


def _workloads():
    # Loaded read-only by path: perfbench/ is not a package.  Its dataclasses
    # look their module up in sys.modules while the module runs.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0, argv
    return buf.getvalue()


def digests(workdir: Path) -> dict:
    """Document key -> sha256 of its stdout; each op's own check runs too."""
    workloads = _workloads()
    out = {}
    for workload, seeds in (("exact_protocols", EXACT_SEEDS), ("paper_noisy", PAPER_SEEDS)):
        for seed in seeds:
            cycle_dir = workdir / workload / str(seed)
            cycle_dir.mkdir(parents=True)
            for i, op in enumerate(workloads.CYCLES[workload](seed, cycle_dir)):
                text = _stdout(op.argv)
                op.check(text)
                out[f"{workload}/{seed}/{i}/{op.kind}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_stdout_matches_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    written_with = expected.pop("numpy_version")
    actual = digests(tmp_path)
    assert len(actual) == 314
    moved = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    upgrade = (f"; the manifest was written with numpy {written_with}, this is numpy {np.__version__}"
               if written_with != np.__version__ else "")
    assert moved == [], f"{len(moved)} documents moved{upgrade}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"numpy_version": np.__version__, **digests(Path(tmp))}
        MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
