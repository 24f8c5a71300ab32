"""Physical-invariant checks over simulation traces.

Anyone extending the workload models (or the simulator itself) needs a
fast way to know the substrate still behaves like a machine. This module
packages the invariants the test suite leans on as reusable checks:

* **tiling** — synchronization epochs partition the run exactly;
* **capacity** — no interval is busier than ``n_cores x duration``; no
  thread outruns an epoch;
* **monotonicity** — counter snapshots never decrease;
* **GC balance** — GC_START/GC_END alternate and sum to the recorded GC
  time.

Each check returns a list of human-readable violations (empty = pass);
:func:`check_trace` aggregates them. ``repro-trace verify`` exposes this
on archived traces.
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.counters import COUNTER_FIELDS
from repro.core.epochs import extract_epochs, total_epoch_time
from repro.sim.trace import EventKind, SimulationTrace

_REL_EPS = 1e-6


def check_epoch_tiling(trace: SimulationTrace) -> List[str]:
    """Epochs must partition [first event, last event] without gaps."""
    violations: List[str] = []
    epochs = extract_epochs(trace.events)
    if not epochs:
        return ["trace produced no epochs"]
    covered = total_epoch_time(epochs)
    if abs(covered - trace.total_ns) > _REL_EPS * max(trace.total_ns, 1.0):
        violations.append(
            f"epochs cover {covered} ns of a {trace.total_ns} ns run"
        )
    for previous, current in zip(epochs, epochs[1:]):
        if abs(current.start_ns - previous.end_ns) > 1e-6:
            violations.append(
                f"gap between epoch {previous.index} and {current.index}"
            )
    return violations


def check_capacity(trace: SimulationTrace, n_cores: int = 4) -> List[str]:
    """Busy time can never exceed cores x wall time, anywhere."""
    violations: List[str] = []
    for record in trace.intervals:
        limit = n_cores * record.duration_ns * (1 + _REL_EPS)
        if record.busy_core_ns > limit + 1.0:
            violations.append(
                f"interval {record.index}: busy {record.busy_core_ns} ns "
                f"exceeds {n_cores} cores x {record.duration_ns} ns"
            )
    for epoch in extract_epochs(trace.events):
        for tid, delta in epoch.thread_deltas.items():
            if delta.active_ns > epoch.duration_ns * (1 + _REL_EPS) + 1.0:
                violations.append(
                    f"epoch {epoch.index}: thread {tid} active "
                    f"{delta.active_ns} ns in a {epoch.duration_ns} ns epoch"
                )
    return violations


def check_counter_monotonicity(trace: SimulationTrace) -> List[str]:
    """Per-thread cumulative counters never decrease across events."""
    violations: List[str] = []
    last: Dict[int, Dict[str, float]] = {}
    for event in trace.events:
        for tid, counters in event.snapshots.items():
            previous = last.setdefault(tid, {})
            for field in COUNTER_FIELDS:
                value = getattr(counters, field)
                if value < previous.get(field, 0.0) - 1e-6:
                    violations.append(
                        f"counter {field} of thread {tid} decreased at "
                        f"{event.time_ns} ns"
                    )
                previous[field] = max(previous.get(field, 0.0), value)
    return violations


def check_gc_balance(trace: SimulationTrace) -> List[str]:
    """GC markers alternate and account for the recorded pause time."""
    violations: List[str] = []
    open_at = None
    pause_total = 0.0
    starts = ends = 0
    for event in trace.events:
        if event.kind is EventKind.GC_START:
            starts += 1
            if open_at is not None:
                violations.append(f"nested GC_START at {event.time_ns}")
            open_at = event.time_ns
        elif event.kind is EventKind.GC_END:
            ends += 1
            if open_at is None:
                violations.append(f"GC_END without start at {event.time_ns}")
            else:
                pause_total += event.time_ns - open_at
                open_at = None
    if open_at is not None:
        violations.append("trace ends inside a GC cycle")
    if starts != trace.gc_cycles or ends != trace.gc_cycles:
        violations.append(
            f"{starts} starts / {ends} ends vs {trace.gc_cycles} recorded cycles"
        )
    if abs(pause_total - trace.gc_time_ns) > 1.0:
        violations.append(
            f"GC markers sum to {pause_total} ns vs recorded {trace.gc_time_ns}"
        )
    return violations


def check_trace(trace: SimulationTrace, n_cores: int = 4) -> List[str]:
    """Run every single-trace check; return all violations."""
    trace.validate()
    violations: List[str] = []
    violations += check_epoch_tiling(trace)
    violations += check_capacity(trace, n_cores)
    violations += check_counter_monotonicity(trace)
    violations += check_gc_balance(trace)
    return violations
