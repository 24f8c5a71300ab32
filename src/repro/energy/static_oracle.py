"""The static-optimal oracle (paper Section VI.B, Figure 7).

Static-optimal is obtained by running the application once per fixed
frequency and picking, in hindsight, the frequency that minimizes energy
while keeping the whole-run slowdown (vs. the highest frequency) within
the threshold. Because it uses the very runs it is judged on, the paper
treats it as an oracle; a dynamic manager can only beat it by exploiting
*phase behaviour* — running memory-bound stretches slower and compute
stretches faster than any single static point could.

:func:`predicted_static_optimal` is the simulate-once variant: instead of
one ground-truth run per set point, it sweeps the whole V/f table from a
single base-frequency trace in one kernel call
(:class:`~repro.core.sweep.TraceSweep`) and prices each predicted
duration with the power model. It answers the oracle's question at the
cost of one simulation plus one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class StaticOracleResult:
    """The oracle's choice for one application and threshold."""

    freq_ghz: float
    energy_j: float
    total_ns: float
    #: Whole-run slowdown vs. the highest frequency.
    slowdown: float
    #: Energy saving vs. running at the highest frequency.
    energy_saving: float


def static_optimal(
    runs: Mapping[float, Tuple[float, float]],
    tolerable_slowdown: float,
    max_freq_ghz: float,
) -> StaticOracleResult:
    """Pick the minimum-energy fixed frequency within the slowdown bound.

    ``runs`` maps frequency (GHz) to ``(total_ns, energy_j)`` from
    ground-truth fixed-frequency simulations; it must include the highest
    frequency, which anchors the slowdown and saving baselines.
    """
    if max_freq_ghz not in runs:
        raise ConfigError(
            f"runs must include the baseline frequency {max_freq_ghz} GHz"
        )
    if tolerable_slowdown < 0:
        raise ConfigError("tolerable_slowdown must be >= 0")
    base_ns, base_j = runs[max_freq_ghz]
    best: StaticOracleResult = StaticOracleResult(
        freq_ghz=max_freq_ghz,
        energy_j=base_j,
        total_ns=base_ns,
        slowdown=0.0,
        energy_saving=0.0,
    )
    for freq_ghz, (total_ns, energy_j) in sorted(runs.items()):
        slowdown = total_ns / base_ns - 1.0
        if slowdown > tolerable_slowdown:
            continue
        if energy_j < best.energy_j:
            best = StaticOracleResult(
                freq_ghz=freq_ghz,
                energy_j=energy_j,
                total_ns=total_ns,
                slowdown=slowdown,
                energy_saving=1.0 - energy_j / base_j,
            )
    return best


def predicted_static_optimal(
    trace_or_sweep,
    power_model,
    frequencies: Sequence[float],
    tolerable_slowdown: float,
    max_freq_ghz: float,
    predictor=None,
    base_freq_ghz: Optional[float] = None,
) -> StaticOracleResult:
    """The oracle's answer from one base-frequency trace, no re-runs.

    Predicts the whole-run duration at every candidate frequency (plus
    ``max_freq_ghz``) in a single sweep-kernel call over the trace's
    decomposition, prices each with ``power_model`` over the trace's
    aggregate counters, and applies :func:`static_optimal`'s selection
    rule to the predicted runs. The default predictor is the paper's
    DEP+BURST. ``trace_or_sweep`` is a trace or a prepared
    :class:`~repro.core.sweep.TraceSweep`; passing a shared sweep reuses
    its decomposition and already-answered prediction lanes.
    """
    from repro.core.predictors import make_predictor
    from repro.core.sweep import TraceSweep

    if predictor is None:
        predictor = make_predictor("DEP+BURST")
    targets = list(frequencies)
    if max_freq_ghz not in targets:
        targets.append(max_freq_ghz)
    sweep = (
        trace_or_sweep
        if isinstance(trace_or_sweep, TraceSweep)
        else TraceSweep(trace_or_sweep)
    )
    predictions = sweep.predict(predictor, targets, base_freq_ghz=base_freq_ghz)
    # Aggregate chip-wide counters once; the power model re-times them to
    # each predicted duration (the same approximation the manager's
    # min-EDP objective uses per quantum).
    aggregate = None
    for counters in sweep.trace.final_counters().values():
        if aggregate is None:
            aggregate = counters.copy()
        else:
            aggregate.add(counters)
    if aggregate is None:
        raise ConfigError("trace has no counter snapshots to price")
    runs = {
        freq: (
            predicted_ns,
            power_model.interval_energy_j(aggregate, predicted_ns, freq),
        )
        for freq, predicted_ns in zip(targets, predictions)
    }
    return static_optimal(runs, tolerable_slowdown, max_freq_ghz)
