"""Running the double-teleportation circuit under a calibrated noise model.

The packaged calibration CSV (T1/T2, gate errors, readout assignment
errors for a 7-qubit device) is compiled into Kraus channels, each folded
once into a superoperator; the routed circuit is then executed on density
matrices. Shot histograms become
slightly non-uniform and the transferred state's fidelity drops below 1
but stays above the 2/3 classical limit.
"""

import numpy as np

from twobell.calibration import load_calibration, packaged_calibration_path
from twobell.channels import build_noise_model
from twobell.experiments import noisy_experiment, routed_experiment
from twobell.tomography import fidelity_stats

records = load_calibration(packaged_calibration_path())
for r in records:
    print(f"Q{r.qubit}: T1={r.t1_us:7.2f}us T2={r.t2_us:7.2f}us "
          f"readout={r.readout_error:.4f}")

nm = build_noise_model(records)

layout, routed, receivers, report = routed_experiment()
print("\nlayout (logical -> physical):", layout)
print("cost:", report)

# One pass through the noise engine: the routed circuit plus the nine
# tomography settings.  Everything below is read from this result.
exp = noisy_experiment(nm)
hist = exp.histogram(shots=8192, seed=0)
print("\nnoisy 8192-shot histogram (ideal would be ~2048 each):")
for outcome in sorted(hist):
    print(f"  {outcome}: {hist[outcome]}")

print(f"\nshot-free noisy fidelity: {100 * exp.deterministic_fidelity():.2f}%")

fids = exp.repetition_fidelities(shots=8192, seed=42, reps=10)
stats = fidelity_stats([100 * f for f in fids])
print(f"10 tomography repetitions: mean {stats.mean:.2f}% "
      f"+- {stats.sample_std:.3f}% (classical limit {100 * 2 / 3:.2f}%)")
