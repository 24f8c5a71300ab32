"""DEP: epoch decomposition with critical-thread prediction (Section III).

DEP predicts a multithreaded application's execution time in two steps:

1. decompose the run into synchronization epochs (every futex sleep/wake
   is a boundary — :mod:`repro.core.epochs`);
2. predict each active thread's duration in each epoch with CRIT, take the
   epoch's predicted duration from the *critical* thread, and sum epochs.

Two critical-thread policies are implemented:

* **per-epoch CTP** — the epoch's duration is simply the largest predicted
  per-thread time; no state crosses epochs (Figure 2(c));
* **across-epoch CTP** — the paper's Algorithm 1 (Figure 2(d)): a
  per-thread delta counter carries how much *earlier* than the epoch's end
  each thread finished its work, so a thread that was non-critical early
  can correctly become critical later. The thread whose sleep closed the
  epoch has its delta reset (its next work genuinely starts at the epoch
  boundary).

With the BURST estimator (``with_burst(crit_nonscaling)``) this is the
paper's headline DEP+BURST predictor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.crit import crit_nonscaling
from repro.core.epochs import Epoch, extract_epochs
from repro.core.model import (
    NonScalingEstimator, check_lane, check_predicted_ns, decompose,
)
from repro.sim.trace import SimulationTrace


class DepPredictor:
    """Epoch-based predictor with per-epoch or across-epoch CTP."""

    def __init__(
        self,
        estimator: NonScalingEstimator = crit_nonscaling,
        across_epoch_ctp: bool = True,
        name: str = "DEP",
    ) -> None:
        self.estimator = estimator
        self.across_epoch_ctp = across_epoch_ctp
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
        epochs = extract_epochs(trace.events)
        return self.predict_epochs(
            epochs, base, target_freq_ghz, uncore_scale=uncore_scale
        )

    def predict_epochs(
        self,
        epochs: Sequence[Epoch],
        base_freq_ghz: float,
        target_freq_ghz: float,
        uncore_scale: float = 1.0,
    ) -> float:
        """Aggregate predicted epoch durations (Algorithm 1 when across-epoch).

        Exposed separately so the energy manager can run DEP over the
        epochs of a single scheduling quantum. ``uncore_scale`` multiplies
        each thread's non-scaling time (heterogeneous uncore clocks);
        1.0 is the homogeneous machine.
        """
        check_lane(base_freq_ghz, target_freq_ghz, uncore_scale)
        deltas: Dict[int, float] = {}
        total = 0.0
        for epoch in epochs:
            total += self.predict_epoch(
                epoch, base_freq_ghz, target_freq_ghz, deltas,
                uncore_scale=uncore_scale,
            )
        return check_predicted_ns(total)

    def predict_epoch(
        self,
        epoch: Epoch,
        base: float,
        target: float,
        deltas: Dict[int, float],
        uncore_scale: float = 1.0,
    ) -> float:
        """Predicted duration of one epoch; updates ``deltas`` in place.

        ``deltas`` is the Algorithm-1 per-thread slack state — pass the
        same (initially empty) dict across consecutive epochs. Exposed for
        consumers that need per-epoch attribution (the analysis toolkit's
        breakdowns, the energy manager's diagnostics).
        """
        if not epoch.thread_deltas:
            # Nobody on a core: the span is wait time (timers), which does
            # not scale with core frequency.
            return epoch.duration_ns
        predicted: Dict[int, float] = {}
        for tid, counters in epoch.thread_deltas.items():
            decomposition = decompose(counters.active_ns, counters, self.estimator)
            predicted[tid] = decomposition.predict_ns(base, target, uncore_scale)
        if not self.across_epoch_ctp:
            return max(predicted.values())
        # Algorithm 1: effective per-thread times adjusted by delta counters.
        effective = {
            tid: a_t - deltas.get(tid, 0.0) for tid, a_t in predicted.items()
        }
        epoch_duration = max(0.0, max(effective.values()))
        for tid, a_t in predicted.items():
            deltas[tid] = deltas.get(tid, 0.0) + (epoch_duration - a_t)
        if epoch.stall_tid is not None:
            deltas[epoch.stall_tid] = 0.0
        return epoch_duration

    def describe(self) -> str:
        """Human-readable model description."""
        policy = "across-epoch" if self.across_epoch_ctp else "per-epoch"
        return f"{self.name} ({policy} CTP)"
