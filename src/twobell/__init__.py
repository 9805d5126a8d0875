"""twobell: exact simulation showing that multi-output teleportation of
generalized Bell-type states needs only two Bell pairs, with a
calibration-driven noise model, state tomography, and routing onto a
seven-qubit coupling graph."""

from .circuit import Circuit, from_text, run_exact, sample_counts, to_text
from .protocols import (
    GeneralizedBellTypeState,
    ResourceReport,
    TeleportBranch,
    cluster_channel_teleport,
    compress_ghz_class,
    expand_ghz_class,
    experiment_circuit,
    multi_output_teleport,
    prepare_cluster5,
    teleport_single,
    teleport_two_qubit_general,
)
from .qstate import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    basis_state,
    hermitian_sqrt,
    partial_trace,
    plus_state,
    tensor,
    to_density,
)
from .channels import (
    CalibrationRecord,
    DurationConfig,
    NoiseModel,
    build_noise_model,
    load_calibration,
)
from .tomography import (
    FidelityStats,
    fidelity,
    fidelity_stats,
    pure_fidelity,
    reconstruct,
    trace_distance,
)
from .transpile import CouplingGraph, CostReport, casablanca_topology, cost, route

__version__ = "0.1.0"
