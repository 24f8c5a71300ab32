"""Analysis utilities on top of simulation traces.

Nothing here is needed to *run* the predictors; these are the diagnostic
tools a user of the library reaches for when a prediction looks off or a
workload behaves unexpectedly:

* :mod:`~repro.analysis.stats` — trace-level statistics: epoch population,
  futex traffic, lock contention, GC pause distribution, counter budgets;
* :mod:`~repro.analysis.criticality` — synchronization-based criticality
  stacks (Du Bois et al. [13], which the paper cites as the related
  criticality work): how much of total execution each thread was critical
  for;
* :mod:`~repro.analysis.breakdown` — per-epoch prediction error
  attribution: which epochs a predictor gets wrong, and by how much;
* :mod:`~repro.analysis.charts` — an ASCII busy-time-per-thread chart
  of one run.
"""

from repro.analysis.breakdown import EpochErrorBreakdown, epoch_error_breakdown
from repro.analysis.criticality import CriticalityStack, criticality_stack
from repro.analysis.stats import TraceStats, trace_stats

__all__ = [
    "CriticalityStack",
    "EpochErrorBreakdown",
    "TraceStats",
    "criticality_stack",
    "epoch_error_breakdown",
    "trace_stats",
]
