"""Work pin: a paper run asks each prediction lane of a trace once.

Figures that share a base trace share its :class:`TraceSweep` through
the runner, so a figure asking questions an earlier one already asked
runs no sweep kernel, and no figure re-extracts a trace's epochs.
"""

import pytest

import repro.core.sweep as sweep_mod
from repro.core.sweep import EpochArrays, TraceSweep
from repro.experiments import fig3, fig7, hetero, sensitivity
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

CONFIG = ExperimentConfig(
    scale=0.04,
    benchmarks=("xalan",),
    static_freqs_ghz=(1.0, 2.0, 3.0, 4.0),
    quantum_ns=4.0e5,
    thresholds=(0.10,),
)


@pytest.fixture(scope="module")
def runner():
    runner = ExperimentRunner(CONFIG)
    fig3.run(runner)
    # Managed runs come from the result cache on a warm run; simulate
    # them here so the counts below see prediction work only.
    for benchmark in CONFIG.benchmarks:
        for threshold in CONFIG.thresholds:
            runner.managed_run(benchmark, threshold)
    return runner


@pytest.fixture
def counts(monkeypatch):
    made = {"kernel": 0, "from_trace": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        sweep_mod,
        "dep_window_sweep",
        counting("kernel", sweep_mod.dep_window_sweep),
    )
    for method in ("_mcrit_sweep", "_coop_sweep"):
        monkeypatch.setattr(
            TraceSweep, method, counting("kernel", getattr(TraceSweep, method))
        )
    monkeypatch.setattr(
        EpochArrays,
        "from_trace",
        staticmethod(counting("from_trace", EpochArrays.from_trace)),
    )
    return made


def test_sensitivity_after_fig3_runs_no_kernel(runner, counts):
    sensitivity.run(runner)
    assert counts["kernel"] == 0


def test_fig7_and_hetero_after_fig3_extract_no_epochs(runner, counts):
    fig7.run(runner)
    hetero.run(runner)
    assert counts["from_trace"] == 0
