"""Figure 4: across-epoch vs per-epoch critical thread prediction.

DEP+BURST is evaluated with Algorithm 1's across-epoch delta counters
against the stateless per-epoch alternative. Paper means: 1→4 GHz 6% vs
10%, 4→1 GHz 8% vs 14% — carrying critical-thread slack across epochs is
a key component of the model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.evaluate import prediction_error
from repro.core.predictors import make_predictor
from repro.experiments.report import ExperimentResult, mean_abs, pct, pct_abs
from repro.experiments.runner import ExperimentRunner

PAPER_MEANS = {
    ("up", "across"): 0.06,
    ("up", "per"): 0.10,
    ("down", "across"): 0.08,
    ("down", "per"): 0.14,
}


def work(config):
    """Ground-truth grid Figure 4 needs (parallel prefetch hook)."""
    from repro.experiments.parallel import fixed_items

    return fixed_items(config.benchmarks, (1.0, 4.0))


def collect(runner: ExperimentRunner) -> Dict[str, Tuple[float, ...]]:
    """Signed DEP+BURST errors per benchmark: (1->4 across, 1->4
    per-epoch, 4->1 across, 4->1 per-epoch)."""
    across = make_predictor("DEP+BURST", across_epoch_ctp=True)
    per = make_predictor("DEP+BURST", across_epoch_ctp=False)
    errors: Dict[str, Tuple[float, ...]] = {}
    for benchmark in runner.config.benchmarks:
        # Both CTP policies share each base trace's decomposition.
        row = []
        for base, target in ((1.0, 4.0), (4.0, 1.0)):
            actual = runner.fixed_run(benchmark, target).total_ns
            for predictor in (across, per):
                [estimate] = runner.predict(
                    benchmark, base, predictor, [target]
                )
                row.append(prediction_error(estimate, actual))
        errors[benchmark] = tuple(row)
    return errors


def mean_abs_columns(errors: Dict[str, Tuple[float, ...]]) -> List[float]:
    """Average absolute error of each :func:`collect` column."""
    return [mean_abs(column) for column in zip(*errors.values())]


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Regenerate Figure 4 (farthest target in each direction)."""
    errors = collect(runner)
    result = ExperimentResult(
        experiment_id="Fig 4",
        title="DEP+BURST: across-epoch vs per-epoch CTP (signed error)",
        headers=[
            "benchmark",
            "1->4 across",
            "1->4 per-epoch",
            "4->1 across",
            "4->1 per-epoch",
        ],
        notes="paper means: 1->4 6%/10%, 4->1 8%/14% (across/per-epoch)",
    )
    for benchmark, row in errors.items():
        result.rows.append((benchmark, *(pct(e) for e in row)))
    result.rows.append(
        ("MEAN |err|", *(pct_abs(m) for m in mean_abs_columns(errors)))
    )
    result.rows.append(
        (
            "paper mean",
            pct_abs(PAPER_MEANS[("up", "across")]),
            pct_abs(PAPER_MEANS[("up", "per")]),
            pct_abs(PAPER_MEANS[("down", "across")]),
            pct_abs(PAPER_MEANS[("down", "per")]),
        )
    )
    return result
