"""twobell: exact simulation showing that multi-output teleportation of
generalized Bell-type states needs only two Bell pairs, with a
calibration-driven noise model, state tomography, and routing onto a
seven-qubit coupling graph.

Importing the package loads no submodule: each public name below loads
its module on first use (PEP 562), so ``from twobell import route``
loads the router and what it needs, and nothing else."""

from importlib import import_module

# Each module, and the names the package exports from it.
_EXPORTS = {
    "circuit": ("Circuit", "run_exact", "sample_counts"),
    "textformat": ("from_text", "to_text"),
    "protocols": ("GeneralizedBellTypeState", "ResourceReport", "TeleportBranch",
                  "compress_ghz_class", "multi_output_teleport"),
    "experiments": ("experiment_circuit",),
    "schemes": ("cluster_channel_teleport", "prepare_cluster5", "teleport_two_qubit_general"),
    "qstate": ("DensityMatrix", "StateVector", "apply_unitary", "basis_state", "hermitian_sqrt",
               "partial_trace", "plus_state", "tensor", "to_density"),
    "calibration": ("CalibrationRecord", "load_calibration"),
    "channels": ("DurationConfig", "NoiseModel", "build_noise_model"),
    "tomography": ("FidelityStats", "fidelity", "fidelity_stats", "pure_fidelity", "reconstruct",
                   "trace_distance"),
    "transpile": ("CouplingGraph", "CostReport", "casablanca_topology", "cost", "route"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
