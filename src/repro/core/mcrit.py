"""M+CRIT: the naive multithreaded extension of CRIT (Section II.C).

M+CRIT applies CRIT to each application thread over its whole lifetime and
declares the thread with the longest *predicted* time critical; its
predicted time is the application's predicted time.

The flaw the paper dissects: a thread's lifetime includes the time it spent
asleep — waiting for locks, barriers, and stop-the-world collections. CRIT
knows nothing about sleep, so all of that waiting lands in the scaling
component and is divided by the frequency ratio, which is wildly wrong for
synchronization-heavy managed workloads. We implement the model faithfully,
including the flaw.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.common.errors import PredictionError
from repro.arch.counters import CounterSet
from repro.core.epochs import Epoch
from repro.core.model import (
    NonScalingEstimator, check_lane, check_predicted_ns, decompose,
)
from repro.core.crit import crit_nonscaling
from repro.core.timeline import CounterTimeline
from repro.sim.trace import SimulationTrace


class MCritPredictor:
    """Per-thread CRIT over full lifetimes; total = slowest predicted thread."""

    def __init__(self, estimator: NonScalingEstimator = crit_nonscaling,
                 name: str = "M+CRIT") -> None:
        self.estimator = estimator
        self.name = name

    def predict_total_ns(
        self,
        trace: SimulationTrace,
        target_freq_ghz: float,
        base_freq_ghz: Optional[float] = None,
        uncore_scale: float = 1.0,
    ) -> float:
        """Predicted end-to-end execution time at ``target_freq_ghz``."""
        base = base_freq_ghz if base_freq_ghz is not None else trace.base_freq_ghz
        timeline = CounterTimeline(trace)
        app_tids = trace.app_tids()
        if not app_tids:
            raise PredictionError("trace has no application threads")
        predicted = 0.0
        for tid in app_tids:
            wall = timeline.lifetime_ns(tid)
            counters = timeline.final_counters(tid)
            decomposition = decompose(wall, counters, self.estimator)
            predicted = max(
                predicted,
                decomposition.predict_ns(base, target_freq_ghz, uncore_scale),
            )
        return check_predicted_ns(predicted)

    def predict_epochs(
        self,
        epochs: Sequence[Epoch],
        base_freq_ghz: float,
        target_freq_ghz: float,
        uncore_scale: float = 1.0,
    ) -> float:
        """M+CRIT over an epoch window (the online / per-quantum variant).

        The model's whole-run semantics carry over verbatim: each thread's
        "lifetime" is the full window span — including any epochs it spent
        asleep, faithfully reproducing the flaw — and its counters are the
        summed deltas over the epochs it ran in. Used by the serve
        subsystem, which sees counter windows instead of whole traces.
        """
        check_lane(base_freq_ghz, target_freq_ghz, uncore_scale)
        if not epochs:
            return 0.0
        span = epochs[-1].end_ns - epochs[0].start_ns
        summed = _sum_thread_deltas(epochs)
        if not summed:
            # Nobody ever ran: the window is pure wait time.
            return span
        predicted = 0.0
        for counters in summed.values():
            decomposition = decompose(span, counters, self.estimator)
            predicted = max(
                predicted,
                decomposition.predict_ns(
                    base_freq_ghz, target_freq_ghz, uncore_scale
                ),
            )
        return check_predicted_ns(predicted)


def _sum_thread_deltas(epochs: Sequence[Epoch]) -> Dict[int, CounterSet]:
    """Per-thread counter deltas summed over a window of epochs."""
    summed: Dict[int, CounterSet] = {}
    for epoch in epochs:
        for tid, counters in epoch.thread_deltas.items():
            seen = summed.get(tid)
            if seen is None:
                summed[tid] = counters.copy()
            else:
                seen.add(counters)
    return summed
