"""Background validation: sequential predictors on microbenchmarks.

Section II.A summarizes a progression of sequential DVFS predictors —
stall time, leading loads, CRIT — each fixing its predecessor's blind
spot. This experiment validates that our substrate reproduces that
progression on the classic microbenchmark shapes, plus the store-heavy
case that motivates this paper's BURST term.

Expected structure (all from the literature the paper cites):

* ``compute``        — everyone exact;
* ``streaming``      — leading loads ≈ CRIT (uniform latency);
* ``pointer_chase``  — leading loads badly under-counts (deep chains);
* ``bank_conflicts`` — leading loads drifts (variable latency), CRIT holds;
* ``store_heavy``    — all load-based models fail; CRIT+BURST fixes it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from repro.core.evaluate import prediction_error
from repro.core.predictors import SequentialPredictor
from repro.experiments.report import ExperimentResult, pct
from repro.sim.run import simulate
from repro.workloads.micro import get_micro, micro_names

_BASE_GHZ = 1.0
_TARGET_GHZ = 4.0
_MODELS = ("stall", "leading-loads", "crit", "crit+burst")


def collect(units: int = 40) -> Dict[str, Dict[str, float]]:
    """Signed 1→4 GHz error per (microbenchmark, sequential model).

    Simulated once per process and ``units`` value (the table and the
    claims read the same numbers); callers must not mutate the result.
    """
    return _collect(units)


@lru_cache(maxsize=None)
def _collect(units: int) -> Dict[str, Dict[str, float]]:
    errors: Dict[str, Dict[str, float]] = {}
    for name in micro_names():
        program = get_micro(name, units=units)
        base = simulate(program, _BASE_GHZ)
        actual = simulate(program, _TARGET_GHZ)
        errors[name] = {}
        for model in _MODELS:
            burst = model.endswith("+burst")
            predictor = SequentialPredictor(
                model.replace("+burst", ""), burst=burst
            )
            predicted = predictor.predict_total_ns(base.trace, _TARGET_GHZ)
            errors[name][model] = prediction_error(predicted, actual.total_ns)
    return errors


def work(config):
    """Microbenchmarks run in-process, outside the result cache: nothing
    to prefetch."""
    return ()


def run(runner=None, units: int = 40) -> ExperimentResult:
    """Render the sequential-model validation table.

    ``runner`` is accepted for harness uniformity but unused — the
    microbenchmarks are independent of the DaCapo models.
    """
    errors = collect(units=units)
    result = ExperimentResult(
        experiment_id="Sec II.A",
        title="Sequential predictors on microbenchmarks (error, 1 -> 4 GHz)",
        headers=["microbenchmark"] + list(_MODELS),
        notes=(
            "background validation of the substrate: the literature's "
            "stall < leading-loads < CRIT accuracy progression, plus the "
            "store-burst failure mode BURST exists for"
        ),
    )
    for name, per_model in errors.items():
        result.rows.append(
            [name] + [pct(per_model[model]) for model in _MODELS]
        )
    return result
