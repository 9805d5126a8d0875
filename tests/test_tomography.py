import numpy as np
import pytest
from conftest import random_state

from twobell.qstate import (
    DensityMatrix,
    basis_state,
    plus_state,
    tensor,
    to_density,
)
from twobell.tomography import (
    exact_expectations,
    expectations_from_settings,
    fidelity,
    fidelity_stats,
    overlap,
    pauli_labels,
    pure_fidelity,
    reconstruct,
    sample_setting_counts,
    settings,
    tomography_from_state,
    trace_distance,
)

SQ2 = 1 / np.sqrt(2)

REFERENCE_VALUES = [77.51, 84.64, 79.31, 78.98, 76.17, 81.33, 83.64, 80.21, 74.65, 79.92]


def random_dm(num_qubits, rng):
    d = 2 ** num_qubits
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m @ m.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m).real)


# -- fidelity -------------------------------------------------------------------


def test_fidelity_self_is_one():
    rng = np.random.default_rng(1)
    rho = random_dm(2, rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_plus_vs_maximally_mixed():
    plus = to_density(plus_state())
    mixed = DensityMatrix(1, np.eye(2) / 2)
    assert fidelity(plus, mixed) == pytest.approx(0.5, abs=1e-10)


def test_fidelity_orthogonal_states():
    assert fidelity(to_density(basis_state(1, 0)), to_density(basis_state(1, 1))) == (
        pytest.approx(0.0, abs=1e-10)
    )


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        for _ in range(10):
            a, b = random_dm(n, rng), random_dm(n, rng)
            fab, fba = fidelity(a, b), fidelity(b, a)
            assert abs(fab - fba) < 1e-8
            assert -1e-9 <= fab <= 1 + 1e-9


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(to_density(plus_state()), random_dm(2, np.random.default_rng(0)))


@pytest.mark.parametrize("measure", [fidelity, pure_fidelity, overlap])
def test_states_of_different_sizes_raise_dimension_mismatch(measure):
    """One check per measure, on ``num_qubits``: 1 qubit against 2, both ways."""
    one, two = plus_state(), tensor(plus_state(), plus_state())
    for a, b in ((one, two), (two, one)):
        b = b if measure is overlap else to_density(b)
        a = to_density(a) if measure is fidelity else a
        with pytest.raises(ValueError, match="dimension mismatch"):
            measure(a, b)


def test_pure_fidelity_examples():
    ideal = tensor(plus_state(), plus_state())
    assert pure_fidelity(ideal, to_density(ideal)) == pytest.approx(1.0, abs=1e-12)
    assert pure_fidelity(plus_state(), DensityMatrix(1, np.eye(2) / 2)) == (
        pytest.approx(0.5, abs=1e-12)
    )


def test_pure_fidelity_matches_general_formula():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for _ in range(10):
            psi = random_state(n, rng)
            rho = random_dm(n, rng)
            assert abs(pure_fidelity(psi, rho) - fidelity(to_density(psi), rho)) < 1e-8


def test_overlap_is_pure_fidelity_of_two_pure_states():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(10):
            a, b = random_state(n, rng), random_state(n, rng)
            assert overlap(a, b) == pytest.approx(pure_fidelity(a, to_density(b)), abs=1e-12)
    with pytest.raises(ValueError):
        overlap(plus_state(), tensor(plus_state(), plus_state()))


# -- reconstruction -------------------------------------------------------------


def test_reconstruct_exact_00():
    rho = to_density(basis_state(2, 0))
    got = reconstruct(exact_expectations(rho), 2)
    assert np.max(np.abs(got.entries - rho.entries)) < 1e-12


def test_reconstruct_exact_plus_plus():
    rho = to_density(tensor(plus_state(), plus_state()))
    got = reconstruct(exact_expectations(rho), 2)
    assert np.max(np.abs(got.entries - rho.entries)) < 1e-10


def test_reconstruct_random_states_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = to_density(random_state(2, rng))
        got = reconstruct(exact_expectations(rho), 2)
        assert trace_distance(got, rho) < 1e-10


def test_reconstruct_missing_string_rejected():
    exps = exact_expectations(to_density(plus_state()))
    del exps["X"]
    with pytest.raises(ValueError):
        reconstruct(exps, 1)


def test_reconstruct_out_of_range_expectation_rejected():
    exps = exact_expectations(to_density(plus_state()))
    exps["X"] = 1.5
    with pytest.raises(ValueError):
        reconstruct(exps, 1)


def test_reconstruct_output_is_valid_density_matrix():
    # Noisy expectations still yield a PSD trace-1 matrix after projection.
    rng = np.random.default_rng(5)
    exps = {lab: float(np.clip(rng.normal(scale=0.5), -1, 1)) for lab in pauli_labels(2)}
    rho = reconstruct(exps, 2)
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho.entries)) > -1e-10


def test_sampled_reconstruction_close():
    psi = tensor(plus_state(), plus_state())
    ideal = to_density(psi)
    good = 0
    for seed in range(10):
        rho = tomography_from_state(psi, shots=8192, seed=seed)
        if trace_distance(rho, ideal) < 0.05:
            good += 1
        assert fidelity(rho, ideal) > 0.9
    assert good >= 9


def test_settings_and_labels():
    assert settings(1) == ["X", "Y", "Z"]
    assert len(settings(2)) == 9
    assert len(pauli_labels(2)) == 15
    assert "II" not in pauli_labels(2)


def test_expectations_from_settings_parity():
    # Every setting reads the same counts, so each label sees them.
    cases = [({"00": 3, "11": 1}, "ZZ", 1.0), ({"01": 2, "10": 2}, "ZZ", -1.0),
             ({"01": 1, "11": 1}, "IZ", -1.0)]
    for counts, label, expected in cases:
        exps = expectations_from_settings({s: counts for s in settings(2)}, 2)
        assert exps[label] == pytest.approx(expected)


def test_expectations_from_settings_names_missing_setting():
    counts = {s: {"00": 1} for s in settings(2) if s != "YZ"}
    with pytest.raises(ValueError, match="'YZ'"):
        expectations_from_settings(counts, 2)


def test_expectations_averaged_over_compatible_settings():
    # <XI> is measurable in XX, XY, XZ; all must be merged consistently.
    psi = tensor(plus_state(), basis_state(1, 0))
    rng = np.random.default_rng(6)
    counts = {s: sample_setting_counts(psi, s, 4096, rng) for s in settings(2)}
    exps = expectations_from_settings(counts, 2)
    assert exps["XI"] == pytest.approx(1.0, abs=0.05)
    assert exps["IZ"] == pytest.approx(1.0, abs=0.05)
    assert exps["ZI"] == pytest.approx(0.0, abs=0.1)


# -- statistics -----------------------------------------------------------------


def test_stats_reference_values():
    stats = fidelity_stats(REFERENCE_VALUES)
    assert stats.mean == pytest.approx(79.636, abs=0.001)
    assert stats.sample_std == pytest.approx(3.096, abs=0.001)


def test_stats_convention_is_bessel_corrected():
    # The n-1 denominator is the only convention matching 3.096; the
    # population formula gives about 2.937.
    assert np.std(REFERENCE_VALUES, ddof=1) == pytest.approx(3.096, abs=0.001)
    assert np.std(REFERENCE_VALUES, ddof=0) == pytest.approx(2.937, abs=0.001)


def test_stats_constant_list():
    stats = fidelity_stats([50.0, 50.0])
    assert stats.mean == 50.0
    assert stats.sample_std == 0.0


def test_stats_requires_two_values():
    with pytest.raises(ValueError):
        fidelity_stats([79.0])


def test_stats_mean_within_range():
    stats = fidelity_stats(REFERENCE_VALUES)
    assert min(REFERENCE_VALUES) <= stats.mean <= max(REFERENCE_VALUES)
