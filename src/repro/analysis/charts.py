"""ASCII bar charts of one run's trace statistics."""

from __future__ import annotations

from repro.common.tables import format_bar_chart
from repro.analysis.stats import TraceStats


def stats_chart(stats: TraceStats, width: int = 30) -> str:
    """Busy-time-by-thread bars for one run."""
    labels = [f"tid {tid}" for tid in sorted(stats.busy_by_thread)]
    values = [
        100.0 * stats.busy_by_thread[tid] / stats.total_ns
        for tid in sorted(stats.busy_by_thread)
    ]
    return format_bar_chart(
        labels, values, width=width, unit="%",
        title=f"busy time per thread ({stats.program_name})",
    )
