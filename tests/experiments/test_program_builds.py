"""Work pin: a runner generates each benchmark program at most once.

A bundle builds its program on first ``.program`` access, so a cold
runner builds each benchmark once however its ground truths are asked
for, and a warm runner, served entirely by the result cache, builds none.
"""

import collections

import repro.workloads.registry as registry
from repro.experiments.cache import ResultCache
from repro.experiments.cli import run_experiments, suite_work
from repro.experiments.parallel import execute
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

#: The paper run without its serve and fleet drivers, in the CLI's order.
PAPER_EXPERIMENTS = (
    "table2", "table1", "sequential", "fig1", "fig3", "sensitivity",
    "fig4", "fig6", "fig7", "hetero",
)


def _count_builds(monkeypatch) -> collections.Counter:
    """Count program builds per benchmark from here on."""
    made = collections.Counter()
    build = registry.build_synthetic_program

    def counting(config):
        made[config.name] += 1
        return build(config)

    monkeypatch.setattr(registry, "build_synthetic_program", counting)
    return made


def test_cold_runner_builds_each_program_once(monkeypatch):
    config = ExperimentConfig(
        scale=0.02,
        benchmarks=("pmd_scale", "sunflow"),
        thresholds=(0.10,),
        quantum_ns=2.0e5,
    )
    builds = _count_builds(monkeypatch)
    runner = ExperimentRunner(config)
    for benchmark in config.benchmarks:
        runner.fixed_run(benchmark, 1.0)
        runner.fixed_runs_batch(benchmark, [2.0, 3.0])
        runner.managed_run(benchmark, 0.10)
    assert runner.simulations == 4 * len(config.benchmarks)
    assert builds == {benchmark: 1 for benchmark in config.benchmarks}


def test_warm_paper_run_builds_no_program(tmp_path, monkeypatch):
    config = ExperimentConfig(scale=0.02)
    cold = ExperimentRunner(config, cache=ResultCache(str(tmp_path)))
    execute(cold, suite_work(PAPER_EXPERIMENTS, cold), jobs=1)
    assert cold.simulations > 0

    builds = _count_builds(monkeypatch)
    warm = ExperimentRunner(config, cache=ResultCache(str(tmp_path)))
    execute(warm, suite_work(PAPER_EXPERIMENTS, warm), jobs=1)
    run_experiments(PAPER_EXPERIMENTS, warm)
    assert warm.simulations == 0
    assert sum(builds.values()) == 0
