"""COOP: application/collector phase splitting + M+CRIT (Section II.C).

A stop-the-world collector alternates 'application' and 'collector' phases.
COOP intercepts the JVM's signals marking collection start/end, applies
M+CRIT *within* each phase over the threads that belong to it (application
threads in application phases, collector threads in collection phases),
and sums the per-phase predictions.

This removes the largest single error of M+CRIT for managed workloads —
application threads no longer have whole GC pauses attributed to their
scaling time — but waiting *within* a phase (locks, barriers) is still
misattributed, which is what DEP's epochs fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.errors import PredictionError
from repro.core.crit import crit_nonscaling
from repro.core.epochs import Epoch
from repro.core.model import (
    NonScalingEstimator, check_lane, check_predicted_ns, decompose,
)
from repro.core.timeline import CounterTimeline
from repro.sim.trace import EventKind, SimulationTrace


@dataclass(frozen=True)
class Phase:
    """One application or collection phase."""

    kind: str  # "app" | "gc"
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        """Measured phase length."""
        return self.end_ns - self.start_ns


def split_phases(trace: SimulationTrace) -> List[Phase]:
    """Alternating application/collection phases from GC markers."""
    phases: List[Phase] = []
    cursor = 0.0
    gc_start: Optional[float] = None
    for event in trace.events:
        if event.kind is EventKind.GC_START:
            if gc_start is not None:
                raise PredictionError("nested GC_START markers in trace")
            if event.time_ns > cursor:
                phases.append(Phase("app", cursor, event.time_ns))
            gc_start = event.time_ns
        elif event.kind is EventKind.GC_END:
            if gc_start is None:
                raise PredictionError("GC_END without GC_START in trace")
            phases.append(Phase("gc", gc_start, event.time_ns))
            cursor = event.time_ns
            gc_start = None
    if gc_start is not None:
        raise PredictionError("trace ends inside a GC cycle")
    if trace.total_ns > cursor:
        phases.append(Phase("app", cursor, trace.total_ns))
    return phases


class CoopPredictor:
    """Phase-split M+CRIT for managed applications."""

    def __init__(self, estimator: NonScalingEstimator = crit_nonscaling,
                 name: str = "COOP") -> None:
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
        phases = split_phases(trace)
        app_tids = trace.app_tids()
        gc_tids = [
            tid for tid, info in trace.threads.items() if info.kind.value == "gc"
        ]
        if not app_tids:
            raise PredictionError("trace has no application threads")
        total = 0.0
        for phase in phases:
            tids: Sequence[int] = app_tids if phase.kind == "app" else gc_tids
            total += self._predict_phase(
                phase, tids, timeline, base, target_freq_ghz, uncore_scale
            )
        return check_predicted_ns(total)

    def predict_epochs(
        self,
        epochs: Sequence[Epoch],
        base_freq_ghz: float,
        target_freq_ghz: float,
        uncore_scale: float = 1.0,
    ) -> float:
        """COOP over an epoch window (the online / per-quantum variant).

        Contiguous runs of epochs with the same ``during_gc`` flag form
        the application/collection phases; within each phase M+CRIT's
        window semantics apply (span wall time, summed counters, slowest
        predicted thread). Phase predictions are summed, exactly as the
        whole-trace model sums its GC-marker phases.
        """
        check_lane(base_freq_ghz, target_freq_ghz, uncore_scale)
        from repro.core.mcrit import _sum_thread_deltas

        total = 0.0
        group: List[Epoch] = []
        for epoch in epochs:
            if group and epoch.during_gc != group[0].during_gc:
                total += self._predict_epoch_group(
                    group, base_freq_ghz, target_freq_ghz, _sum_thread_deltas,
                    uncore_scale,
                )
                group = []
            group.append(epoch)
        if group:
            total += self._predict_epoch_group(
                group, base_freq_ghz, target_freq_ghz, _sum_thread_deltas,
                uncore_scale,
            )
        return check_predicted_ns(total)

    def _predict_epoch_group(
        self, group, base, target, sum_deltas, uncore_scale=1.0
    ) -> float:
        span = group[-1].end_ns - group[0].start_ns
        summed = sum_deltas(group)
        if not summed:
            return span
        best = 0.0
        for counters in summed.values():
            decomposition = decompose(span, counters, self.estimator)
            best = max(best, decomposition.predict_ns(base, target, uncore_scale))
        return best

    def _predict_phase(
        self,
        phase: Phase,
        tids: Sequence[int],
        timeline: CounterTimeline,
        base: float,
        target: float,
        uncore_scale: float = 1.0,
    ) -> float:
        best = 0.0
        any_thread = False
        for tid in tids:
            # Clip the phase window to the thread's lifetime.
            start = max(phase.start_ns, timeline.spawn_time(tid))
            end = min(phase.end_ns, timeline.exit_time(tid))
            if end <= start:
                continue
            any_thread = True
            delta = timeline.delta(tid, start, end)
            decomposition = decompose(end - start, delta, self.estimator)
            best = max(best, decomposition.predict_ns(base, target, uncore_scale))
        if not any_thread:
            # No live thread in the phase window: keep measured duration.
            return phase.duration_ns
        return best
