"""Smoke test of the benchmark and of its output checks.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload briefly (about a minute in all).  Scratch copies of
the tree go under .perfbench/smoke/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import END_TO_END_UNITS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import CYCLES  # noqa: E402


def bench(root: Path, workload: str, trace: int = 0, seed: int = 0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def copy_tree(name: str, with_sources: bool) -> Path:
    target = SCRATCH / name
    if target.exists():
        shutil.rmtree(target)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, target / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target)
    if with_sources:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    return target


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(CYCLES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_tiny_run_reports_every_metric(workload):
    res = result(bench(ROOT, workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tampered_reference_fails_every_op():
    checkout = copy_tree("tampered", with_sources=True)
    ref = checkout / "perfbench" / "reference" / "paper_noisy_seed0.json"
    text = ref.read_text()
    field = '"fidelity_percent_deterministic": 83.74816'
    assert field in text
    ref.write_text(text.replace(field, '"fidelity_percent_deterministic": 83.74817'))
    # A seed other than the default: only the seed-independent fields
    # of the reference can catch the change.
    res = result(bench(checkout, "paper_noisy", seed=7))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_traced_paper_op_counts():
    res = result(bench(ROOT, "paper_noisy", trace=1))
    assert res["correct"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["channels.noisy_distribution.calls"] == 13
    assert metrics["experiments.post_correction_state.calls"] == 2
    assert metrics["qstate.apply_kraus.calls"] == 2943
    assert metrics["transpile.route.calls"] == 1
    assert metrics["transpile.cost.calls"] == 5040


def test_refuses_to_run_without_sources():
    bare = copy_tree("bare", with_sources=False)
    proc = bench(bare, "exact_protocols")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
