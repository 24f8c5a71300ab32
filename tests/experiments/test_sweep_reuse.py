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

    for method in ("_dep_fold", "_mcrit_sweep", "_coop_sweep"):
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


#: The paper run without its serve and fleet drivers, in the CLI's order.
PAPER_EXPERIMENTS = (
    "table2", "table1", "sequential", "fig1", "fig3", "sensitivity",
    "fig4", "fig6", "fig7", "hetero",
)


def test_warm_paper_run_folds_each_base_trace_once(tmp_path, monkeypatch):
    """Across-epoch CTP walks every epoch once per call, so a warm run
    makes one across fold per base trace (its lane grid carries every
    figure's DEP lanes) plus hetero's one per 4 GHz trace."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.cli import run_experiments, suite_work
    from repro.experiments.parallel import execute
    from repro.workloads.dacapo import dacapo_names

    config = ExperimentConfig(scale=0.02)
    cold = ExperimentRunner(config, cache=ResultCache(str(tmp_path)))
    execute(cold, suite_work(PAPER_EXPERIMENTS, cold), jobs=1)

    folds = {True: 0, False: 0}
    fold = sweep_mod.ctp_total_multi

    def counting(epoch_meta, predicted, across):
        folds[across] += 1
        return fold(epoch_meta, predicted, across)

    monkeypatch.setattr(sweep_mod, "ctp_total_multi", counting)
    warm = ExperimentRunner(config, cache=ResultCache(str(tmp_path)))
    execute(warm, suite_work(PAPER_EXPERIMENTS, warm), jobs=1)
    run_experiments(PAPER_EXPERIMENTS, warm)
    assert warm.simulations == 0
    n_benchmarks = len(dacapo_names())
    assert config.benchmarks == tuple(dacapo_names())
    # 1 and 4 GHz traces, plus hetero's fold over the 4 GHz ones.
    assert folds[True] == 3 * n_benchmarks == 21
    # Figure 4's per-epoch lanes: one fold per base trace.
    assert folds[False] == 2 * n_benchmarks
