"""Prediction-error metrics (Section V.A).

The paper quantifies accuracy as the *relative prediction error*
``estimated / actual - 1``: negative values mean the execution time was
underestimated (performance overestimated), positive the reverse.
"""

from __future__ import annotations

from repro.common.errors import PredictionError


def prediction_error(estimated_ns: float, actual_ns: float) -> float:
    """Signed relative error: ``estimated / actual - 1``."""
    if actual_ns <= 0:
        raise PredictionError(f"actual time must be positive, got {actual_ns}")
    return estimated_ns / actual_ns - 1.0
