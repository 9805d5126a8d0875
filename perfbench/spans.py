"""Layer tracing of the twobell package from outside it.

``Tracer.install`` replaces selected functions of ``src/twobell`` with
wrappers that record one span per call: name, start, end, parent span,
op id and a few attributes taken from the arguments or the result.  The
wrapper is bound at every module attribute that refers to the original
function, so calls made through ``from .qstate import apply_kraus``
style names are seen as well.  Spans are kept in memory;
``layer_metrics`` turns the spans of whole ops into per-op metrics.

Spans nest through one stack, which is right because every op runs on
one thread (``--workers`` stays at 1 in all workloads).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path


def _apply_kraus_attrs(bound, result):
    terms = len(bound["kraus"])
    # Computed, not measured: per Kraus term the row pass and the column
    # pass each read and write one 2^n x 2^n array, and the running sum
    # reads two arrays and writes one.
    return {"terms": terms, "bytes_computed": terms * 7 * bound["rho"].nbytes}


def _route_attrs(bound, result):
    return {"cnot_count": result[2].cnot_count}


def _reps_attrs(bound, result):
    return {"reps": bound["reps"]}


# (module, attribute, span name, attribute extractor or None)
TARGETS = (
    ("qstate", "apply_kraus", "qstate.apply_kraus", _apply_kraus_attrs),
    ("qstate", "apply_unitary_dm", "qstate.apply_unitary_dm", None),
    ("qstate", "apply_unitary", "qstate.apply_unitary", None),
    ("qstate", "to_density", "qstate.to_density", None),
    ("channels", "NoiseModel.idle_kraus", "channels.kraus_build", None),
    ("channels", "NoiseModel.single_gate_kraus", "channels.kraus_build", None),
    ("channels", "NoiseModel.cnot_gate_kraus", "channels.kraus_build", None),
    ("channels", "noisy_distribution", "channels.noisy_distribution", None),
    ("channels", "sample_distribution", "channels.sample_distribution", None),
    ("channels", "load_calibration", "channels.calibration", None),
    ("channels", "build_noise_model", "channels.calibration", None),
    ("transpile", "route", "transpile.route", _route_attrs),
    ("transpile", "cost", "transpile.cost", None),
    ("circuit", "run_exact", "circuit.run_exact", None),
    ("circuit", "sample_counts", "circuit.sample_counts", None),
    ("circuit", "from_text", "circuit.from_text", None),
    ("circuit", "to_text", "circuit.to_text", None),
    ("protocols", "multi_output_teleport", "protocols.multi_output_teleport", None),
    ("protocols", "cluster_channel_teleport", "protocols.cluster_channel_teleport", None),
    ("protocols", "teleport_two_qubit_general", "protocols.teleport_two_qubit_general", None),
    ("tomography", "reconstruct", "tomography.reconstruct", None),
    ("tomography", "expectations_from_settings", "tomography.expectations_from_settings", None),
    ("tomography", "fidelity", "tomography.fidelity", None),
    ("tomography", "pure_fidelity", "tomography.pure_fidelity", None),
    ("tomography", "tomography_from_state", "tomography.tomography_from_state", None),
    ("experiments", "post_correction_state", "experiments.post_correction_state", None),
    ("experiments", "noisy_setting_distributions", "experiments.noisy_setting_distributions", None),
    ("experiments", "repeat_noisy_fidelities", "experiments.repeat_noisy_fidelities", _reps_attrs),
    ("experiments", "deterministic_noisy_fidelity", "experiments.deterministic_noisy_fidelity", None),
    ("experiments", "noisy_histogram", "experiments.noisy_histogram", None),
    ("experiments", "routed_experiment", "experiments.routed_experiment", None),
    ("cli", "main", "cli.main", None),
)

SRC_MODULES = (
    "__init__", "channels", "circuit", "cli", "experiments",
    "protocols", "qstate", "tomography", "transpile",
)

_P, _E = "paper_noisy", "exact_protocols"
_R = "route_mix"

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
LAYER_METRICS = {
    "qstate.apply_kraus.calls": ("count", f"op_p50_s, cpu_per_op_s on {_P}"),
    "qstate.apply_kraus.terms": ("count", f"op_p50_s, cpu_per_op_s on {_P}"),
    "qstate.apply_kraus.self_s": ("s", f"op_p50_s, cpu_per_op_s on {_P}"),
    "qstate.apply_kraus.bytes_computed": ("B", f"op_p50_s, cpu_per_op_s on {_P}"),
    "qstate.apply_unitary_dm.calls": ("count", f"op_p50_s, cpu_per_op_s on {_P}"),
    "qstate.apply_unitary_dm.self_s": ("s", f"op_p50_s, cpu_per_op_s on {_P}"),
    "qstate.apply_unitary.calls": ("count", f"ops_per_s on {_E}"),
    "qstate.apply_unitary.self_s": ("s", f"ops_per_s on {_E}"),
    "qstate.to_density.calls": ("count", f"ops_per_s on {_E}"),
    "qstate.to_density.self_s": ("s", f"ops_per_s on {_E}"),
    "channels.kraus_build.calls": ("count", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.kraus_build.self_s": ("s", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.noisy_distribution.calls": ("count", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.noisy_distribution.wall_s": ("s", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.noisy_distribution.self_s": ("s", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.sample_distribution.calls": ("count", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.sample_distribution.self_s": ("s", f"op_p50_s on {_P}; no change elsewhere"),
    "channels.calibration.wall_s": ("s", f"op_p50_s on {_P}; no change elsewhere"),
    "transpile.route.calls": ("count", f"ops_per_s on {_R}; a tenth of op_p50_s on {_P}"),
    "transpile.route.wall_s": ("s", f"ops_per_s on {_R}; a tenth of op_p50_s on {_P}"),
    "transpile.route.self_s": ("s", f"ops_per_s on {_R}; a tenth of op_p50_s on {_P}"),
    "transpile.route.cnot_count": ("count", f"output of {_R} and {_P}; must not change"),
    "transpile.cost.calls": ("count", f"ops_per_s on {_R}; a tenth of op_p50_s on {_P}"),
    "transpile.cost.self_s": ("s", f"ops_per_s on {_R}; a tenth of op_p50_s on {_P}"),
    "circuit.run_exact.calls": ("count", f"ops_per_s on {_E} and {_R}"),
    "circuit.run_exact.self_s": ("s", f"ops_per_s on {_E} and {_R}"),
    "circuit.sample_counts.self_s": ("s", f"ops_per_s on {_E} and {_R}"),
    "circuit.from_text.self_s": ("s", f"ops_per_s on {_E} and {_R}"),
    "circuit.to_text.self_s": ("s", f"ops_per_s on {_E} and {_R}"),
    "protocols.multi_output_teleport.wall_s": ("s", f"ops_per_s on {_E}"),
    "protocols.multi_output_teleport.self_s": ("s", f"ops_per_s on {_E}"),
    "protocols.cluster_channel_teleport.wall_s": ("s", f"ops_per_s on {_E}"),
    "protocols.cluster_channel_teleport.self_s": ("s", f"ops_per_s on {_E}"),
    "protocols.teleport_two_qubit_general.wall_s": ("s", f"ops_per_s on {_E}"),
    "protocols.teleport_two_qubit_general.self_s": ("s", f"ops_per_s on {_E}"),
    "tomography.reconstruct.calls": ("count", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.reconstruct.self_s": ("s", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.expectations_from_settings.calls": ("count", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.expectations_from_settings.self_s": ("s", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.fidelity.calls": ("count", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.fidelity.self_s": ("s", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.pure_fidelity.calls": ("count", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.pure_fidelity.self_s": ("s", f"ops_per_s on {_E}; slightly op_p50_s on {_P}"),
    "tomography.tomography_from_state.wall_s": ("s", f"ops_per_s on {_E}"),
    "experiments.post_correction_state.calls": ("count", f"op_p50_s on {_P}"),
    "experiments.post_correction_state.wall_s": ("s", f"op_p50_s on {_P}"),
    "experiments.noisy_setting_distributions.wall_s": ("s", f"op_p50_s on {_P}"),
    "experiments.rep_s": ("s", f"op_p50_s on {_P}"),
    "experiments.deterministic_noisy_fidelity.wall_s": ("s", f"op_p50_s on {_P}"),
    "experiments.noisy_histogram.wall_s": ("s", f"op_p50_s on {_P}"),
    "experiments.routed_experiment.wall_s": ("s", f"op_p50_s on {_P}"),
    "cli.main.wall_s": ("s", f"op_p50_s on {_P}; setup_s on {_E} and {_R}"),
    "cli.main.self_s": ("s", f"op_p50_s on {_P}; setup_s on {_E} and {_R}"),
    "cli.startup_s": ("s", f"op_p50_s on {_P}; setup_s on {_E} and {_R}"),
    "trace.overhead_pct": ("%", "none: traced minus untraced op time, over untraced"),
    "src.lines": ("lines", "none: the line count of src/twobell, reported, not gated"),
    **{
        f"src.{m}.lines": ("lines", "none: reported, not gated")
        for m in SRC_MODULES
    },
}


class Tracer:
    """In-memory span recorder for the twobell layers."""

    def __init__(self):
        # Each span: [name, start, end, parent index, op id, attributes].
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = attrs(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every twobell binding; idempotent per tracer.

        A target the program no longer has is skipped, so its metrics
        read zero instead of the traced run failing."""
        if self._patches:
            return
        import twobell.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sys.modules.items() if n == "twobell" or n.startswith("twobell.")]
        for module_name, attr, span_name, attrs in TARGETS:
            owner = sys.modules.get(f"twobell.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, attrs)
            if path:  # a method: patch the class attribute
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def _totals(spans):
    """Sum calls, wall, self time and attributes per span name."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        duration = end - start
        totals[f"{name}.self_s"] += duration - child_time[i]
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.wall_s"] += duration
        for key, value in (attrs or {}).items():
            totals[f"{name}.{key}"] += value
    return totals


def _repetition_time(spans):
    """Time of one tomography repetition: repeat_noisy_fidelities minus
    the setting distributions it shares across repetitions, per rep."""
    shared = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if name == "experiments.noisy_setting_distributions" and parent >= 0:
            shared[parent] += end - start
    total, reps = 0.0, 0
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        if name == "experiments.repeat_noisy_fidelities":
            total += end - start - shared[i]
            reps += attrs["reps"]
    return total / reps if reps else 0.0


def src_line_counts(root: Path) -> dict:
    """Lines per module (0 for a module that is gone) and in all of src/twobell."""
    package = root / "src" / "twobell"
    lines = {p.stem: len(p.read_text().splitlines()) for p in package.glob("*.py")}
    counts = {f"src.{m}.lines": lines.get(m, 0) for m in SRC_MODULES}
    counts["src.lines"] = sum(lines.values())
    return counts


def layer_metrics(spans, ops: int, startup_s: float, overhead_pct: float, root: Path) -> dict:
    """Every LAYER_METRICS value, per op over ``ops`` whole traced ops."""
    totals = _totals(spans)
    values = {name: totals.get(name, 0.0) / ops for name in LAYER_METRICS}
    values["experiments.rep_s"] = _repetition_time(spans)
    values["cli.startup_s"] = startup_s
    values["trace.overhead_pct"] = overhead_pct
    values.update(src_line_counts(root))
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]} for name in LAYER_METRICS}
