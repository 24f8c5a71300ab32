"""Scaling/non-scaling arithmetic shared by all predictors.

Every DVFS predictor in the paper rests on one identity (Section II.A):
execution time splits into a *scaling* component (pipeline work, inversely
proportional to frequency) and a *non-scaling* component (memory time,
fixed in nanoseconds):

    T(f_target) = T_scaling(f_base) * f_base / f_target  +  T_nonscaling

Predictors differ only in how they estimate ``T_nonscaling`` from hardware
counters; given an estimate, everything else is this module's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from repro.common.errors import PredictionError
from repro.common.units import check_frequency
from repro.arch.counters import CounterSet

#: Signature of a non-scaling estimator: counters -> non-scaling ns.
NonScalingEstimator = Callable[[CounterSet], float]


@dataclass(frozen=True)
class TimeDecomposition:
    """One thread's (or epoch's) time split at the base frequency."""

    scaling_ns: float
    nonscaling_ns: float

    def __post_init__(self) -> None:
        if self.scaling_ns < 0 or self.nonscaling_ns < 0:
            raise PredictionError(
                f"negative decomposition: scaling={self.scaling_ns}, "
                f"nonscaling={self.nonscaling_ns}"
            )

    @property
    def total_ns(self) -> float:
        """Measured wall time at the base frequency."""
        return self.scaling_ns + self.nonscaling_ns

    def predict_ns(
        self,
        base_freq_ghz: float,
        target_freq_ghz: float,
        uncore_scale: float = 1.0,
    ) -> float:
        """Predicted wall time at ``target_freq_ghz``.

        ``uncore_scale`` multiplies the non-scaling (memory/stall) time:
        it is the ratio of the reference uncore frequency to the target
        uncore frequency. The homogeneous machine's 1.0 (the default)
        evaluates the paper's exact expression, since IEEE-754 makes
        ``x * 1.0 == x``.
        """
        check_lane(base_freq_ghz, target_freq_ghz, uncore_scale)
        return (
            self.scaling_ns * base_freq_ghz / target_freq_ghz
            + self.nonscaling_ns * uncore_scale
        )


def check_lane(
    base_freq_ghz: float, target_freq_ghz: float, uncore_scale: float
) -> None:
    """Raise :class:`PredictionError` unless one prediction lane's base,
    target and uncore scale are all finite and above zero."""
    check_frequency("base frequency", base_freq_ghz, PredictionError)
    check_frequency("target frequency", target_freq_ghz, PredictionError)
    check_frequency("uncore_scale", uncore_scale, PredictionError)


def check_predicted_ns(value: float) -> float:
    """``value`` if finite, else :class:`PredictionError`: the one check
    every public prediction entry makes on what it returns. A valid but
    extreme frequency ratio can overflow a double, and the scalar and
    sweep folds then disagree (``inf`` against ``nan``)."""
    if not -math.inf < value < math.inf:
        raise PredictionError(
            f"predicted time {value!r} is not finite: the frequency "
            "ratio overflows a double"
        )
    return value


def check_predicted_list(values: List[float]) -> List[float]:
    """:func:`check_predicted_ns` over a sweep's results."""
    for value in values:
        check_predicted_ns(value)
    return values


def decompose(
    wall_ns: float, counters: CounterSet, estimator: NonScalingEstimator
) -> TimeDecomposition:
    """Split ``wall_ns`` using ``estimator``'s non-scaling estimate.

    The estimate is clamped to ``[0, wall_ns]``: a hardware counter can
    legitimately report more accumulated memory latency than wall time
    (overlapped chains counted in full), but no predictor treats more than
    the whole measured time as non-scaling.
    """
    if wall_ns < 0:
        raise PredictionError(f"negative wall time {wall_ns}")
    nonscaling = min(max(estimator(counters), 0.0), wall_ns)
    return TimeDecomposition(scaling_ns=wall_ns - nonscaling, nonscaling_ns=nonscaling)
