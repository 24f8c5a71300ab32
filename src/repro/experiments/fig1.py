"""Figure 1: average absolute error vs target frequency, M+CRIT vs DEP+BURST.

The paper's motivating figure predicts performance at 2, 3 and 4 GHz from
a 1 GHz base run and contrasts the naive M+CRIT extension (27% average
absolute error at 4 GHz) with DEP+BURST (6%).
"""

from __future__ import annotations

from repro.experiments import fig3
from repro.experiments.report import ExperimentResult, pct_abs
from repro.experiments.runner import ExperimentRunner

#: Approximate paper values (average absolute error, base 1 GHz).
PAPER_MCRIT = {2.0: 0.12, 3.0: 0.20, 4.0: 0.27}
PAPER_DEPBURST = {2.0: 0.03, 3.0: 0.05, 4.0: 0.06}


def work(config):
    """Ground-truth grid Figure 1 needs: Figure 3's, whose errors it reads."""
    return fig3.work(config)


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Regenerate Figure 1's two error-vs-frequency series."""
    data = fig3.collect(runner)
    result = ExperimentResult(
        experiment_id="Fig 1",
        title="Average absolute prediction error vs target (base 1 GHz)",
        headers=[
            "target (GHz)",
            "M+CRIT",
            "paper M+CRIT",
            "DEP+BURST",
            "paper DEP+BURST",
        ],
        notes="averaged over all benchmarks; paper values read from Figure 1",
    )
    for target in runner.config.targets_up_ghz:
        result.rows.append(
            (
                f"{target:.0f}",
                pct_abs(data.mean_abs_at("up", "M+CRIT", target)),
                pct_abs(PAPER_MCRIT.get(target, float("nan"))),
                pct_abs(data.mean_abs_at("up", "DEP+BURST", target)),
                pct_abs(PAPER_DEPBURST.get(target, float("nan"))),
            )
        )
    return result
