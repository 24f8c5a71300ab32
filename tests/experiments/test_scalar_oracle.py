"""Figures rendered through the sweep kernels equal the scalar oracle's.

Figures 1 and 4 have their own parity tests beside their drivers.
"""

from repro.experiments import fig3, sensitivity
from repro.experiments.cli import _as_results
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig
from tests.util import ScalarOracleRunner

CONFIG = ExperimentConfig(
    scale=0.04,
    benchmarks=("xalan", "lusearch_fix"),
    static_freqs_ghz=(1.0, 2.0, 3.0, 4.0),
    quantum_ns=4.0e5,
)


def test_figures_match_the_scalar_oracle():
    runner = ExperimentRunner(CONFIG)
    oracle = ScalarOracleRunner(CONFIG)
    oracle._bundles = runner._bundles  # share ground truths
    oracle._fixed = runner._fixed
    for module in (fig3, sensitivity):
        swept = [r.to_text() for r in _as_results(module.run(runner))]
        scalar = [r.to_text() for r in _as_results(module.run(oracle))]
        assert scalar == swept, module.__name__
    assert oracle.simulations == 0
    assert not oracle._sweeps  # the oracle never touched a sweep kernel
