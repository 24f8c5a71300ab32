"""Figure 3: per-benchmark prediction errors, six models, both directions.

Figure 3(a): base 1 GHz, targets 2/3/4 GHz. Figure 3(b): base 4 GHz,
targets 3/2/1 GHz. Models: M+CRIT, COOP, DEP, each with and without
BURST. The paper's headline means: M+CRIT 27%/70%, COOP 22%/63%,
DEP 19%/57%, DEP+BURST 6%/8% (1→4 / 4→1 directions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.evaluate import prediction_error
from repro.core.predictors import make_predictor, predictor_names
from repro.experiments.report import ExperimentResult, mean_abs, pct, pct_abs
from repro.experiments.runner import ExperimentRunner

#: Paper's reported average absolute errors at the farthest target.
PAPER_MEANS = {
    "up": {"M+CRIT": 0.27, "COOP": 0.22, "DEP": 0.19, "DEP+BURST": 0.06},
    "down": {"M+CRIT": 0.70, "COOP": 0.63, "DEP": 0.57, "DEP+BURST": 0.08},
}


@dataclass
class Fig3Data:
    """Raw signed errors: direction -> model -> benchmark -> target -> error."""

    up: Dict[str, Dict[str, Dict[float, float]]]
    down: Dict[str, Dict[str, Dict[float, float]]]

    def mean_abs_at(self, direction: str, model: str, target: float) -> float:
        """Average absolute error across benchmarks at one target."""
        per_bench = getattr(self, direction)[model]
        return mean_abs([per_bench[b][target] for b in per_bench])


def work(config):
    """Ground-truth grid Figure 3 needs (parallel prefetch hook)."""
    from repro.experiments.parallel import fixed_items

    freqs = sorted(
        {1.0, 4.0, *config.targets_up_ghz, *config.targets_down_ghz}
    )
    return fixed_items(config.benchmarks, freqs)


def collect(runner: ExperimentRunner) -> Fig3Data:
    """Compute the full error grid (cached ground truths via the runner)."""
    config = runner.config
    models = predictor_names()
    data = Fig3Data(up={m: {} for m in models}, down={m: {} for m in models})
    directions: Tuple[Tuple[str, float, Tuple[float, ...]], ...] = (
        ("up", 1.0, config.targets_up_ghz),
        ("down", 4.0, config.targets_down_ghz),
    )
    for direction, base_freq, targets in directions:
        for benchmark in config.benchmarks:
            actuals = {
                t: runner.fixed_run(benchmark, t).total_ns for t in targets
            }
            for model in models:
                estimates = runner.predict(
                    benchmark, base_freq, make_predictor(model), targets
                )
                getattr(data, direction)[model][benchmark] = {
                    t: prediction_error(est, actuals[t])
                    for t, est in zip(targets, estimates)
                }
    return data


def run(runner: ExperimentRunner) -> List[ExperimentResult]:
    """Regenerate Figure 3(a) and 3(b) plus the headline-mean comparison."""
    config = runner.config
    data = collect(runner)
    models = predictor_names()
    results: List[ExperimentResult] = []
    for direction, base_freq, targets, fig_id in (
        ("up", 1.0, config.targets_up_ghz, "Fig 3(a)"),
        ("down", 4.0, config.targets_down_ghz, "Fig 3(b)"),
    ):
        result = ExperimentResult(
            experiment_id=fig_id,
            title=f"Signed prediction error, base {base_freq:.0f} GHz",
            headers=["benchmark", "target"] + models,
        )
        for benchmark in config.benchmarks:
            for target in targets:
                result.rows.append(
                    [benchmark, f"{target:.0f} GHz"]
                    + [
                        pct(getattr(data, direction)[m][benchmark][target])
                        for m in models
                    ]
                )
        far_target = targets[-1]
        result.rows.append(
            ["MEAN |err|", f"{far_target:.0f} GHz"]
            + [pct_abs(data.mean_abs_at(direction, m, far_target)) for m in models]
        )
        paper = PAPER_MEANS[direction]
        result.rows.append(
            ["paper mean", f"{far_target:.0f} GHz"]
            + [
                pct_abs(paper[m]) if m in paper else "-"
                for m in models
            ]
        )
        results.append(result)
    return results
