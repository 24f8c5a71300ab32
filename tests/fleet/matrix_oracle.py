"""Test-only oracle: the profile sweep matrices, one interval at a time.

``durations`` and ``energies`` are copied from
``repro.fleet.profiles.TenantProfile`` as they were before the profile
derived ``D`` from one columnar decomposition of the whole trace and
``E`` from one array expression: every interval re-extracts its own
epoch slice, sweeps it, and prices each cell with the scalar
``PowerModel.interval_energy_j``. The profile's matrices must equal
these bit for bit; ``test_profile_matrices.py`` checks that.
"""

import numpy as np

from repro.core.sweep import EpochArrays, sweep_predict_epochs
from repro.energy.manager import interval_epochs


def oracle_durations(profile) -> np.ndarray:
    """``D[i, j]``: predicted ns of interval ``i`` at set point ``j``."""
    rows = []
    for record in profile.records:
        epochs = interval_epochs(record, profile.trace)
        if epochs:
            row = sweep_predict_epochs(
                profile.predictor,
                EpochArrays.from_epochs(epochs),
                record.freq_ghz,
                profile.targets,
            )
            row = [max(value, 0.0) for value in row]
        else:
            row = [record.duration_ns] * len(profile.targets)
        # A degenerate decomposition (no predictable work) falls
        # back to the measured duration at every set point.
        if row[profile.fmax_index] <= 0.0:
            row = [record.duration_ns] * len(profile.targets)
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def oracle_energies(profile, durations: np.ndarray) -> np.ndarray:
    """``E[i, j]``: power-model joules of interval ``i`` at point ``j``."""
    rows = []
    for i, record in enumerate(profile.records):
        counters = record.aggregate()
        rows.append(
            [
                profile.power_model.interval_energy_j(
                    counters, float(durations[i, j]), freq
                )
                for j, freq in enumerate(profile.targets)
            ]
        )
    return np.asarray(rows, dtype=np.float64)
