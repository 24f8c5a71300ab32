"""Summary statistics the benchmark reports.

Every timing is reported as a median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, so a tail
figure is never read off a handful of points.
"""

from __future__ import annotations

from typing import List, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles the benchmark may report as a tail, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def reported_percentile(n: int) -> float:
    """Highest of :data:`TAIL_CANDIDATES` with ``MIN_BEYOND`` samples beyond.

    Samples beyond percentile ``p`` of ``n`` are ``n * (1 - p/100)``;
    returns 0.0 when even the median lacks the support.
    """
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return 0.0


def fail_rate(attempted: int, failed: int) -> float:
    """Failed over attempted operations; an empty run is all failure."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def open_loop_latencies(
    due_s: Sequence[float], done_s: Sequence[float]
) -> List[float]:
    """Per-request latency of an open loop, timed from when each was due.

    A request sent late by a stalled generator still counts its wait:
    the clock starts at the schedule, not at the send.
    """
    if len(due_s) != len(done_s):
        raise ValueError("due and done lists differ in length")
    return [done - due for due, done in zip(due_s, done_s)]
