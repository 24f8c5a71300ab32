"""Differential test: parallel fan-out is bit-identical to the serial path.

The simulator is deterministic — every RNG draw is keyed by (seed,
purpose, index) — so distributing the (benchmark × frequency × threshold)
grid over worker processes and rehydrating the results through the disk
cache must not change a single bit of any headline number. This locks
that in: any drift (float round-tripping through JSON, worker-order
dependence, shared-state leakage) fails the exact equality below.

``REPRO_JOBS`` overrides the worker count (CI exercises 2 and 4).
"""

import os
import tempfile

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import execute, fixed_items, managed_items
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

CONFIG = ExperimentConfig(
    scale=0.02,
    benchmarks=("pmd_scale", "lusearch_fix"),
    targets_up_ghz=(2.0, 4.0),
    targets_down_ghz=(1.0,),
    static_freqs_ghz=(1.0, 4.0),
    thresholds=(0.05, 0.10),
    # Miniature runs last a few ms; shrink the quantum so the manager
    # actually takes interval decisions worth comparing.
    quantum_ns=2.0e5,
)

GRID = fixed_items(CONFIG.benchmarks, (1.0, 2.0, 4.0)) + managed_items(
    CONFIG.benchmarks, CONFIG.thresholds
)


def _jobs() -> int:
    return int(os.environ.get("REPRO_JOBS", "4"))


def test_parallel_results_bit_identical_to_serial(tmp_path):
    serial = ExperimentRunner(CONFIG)  # no disk cache: pure in-process path
    parallel = ExperimentRunner(CONFIG, cache=ResultCache(tmp_path / "cache"))

    report = execute(parallel, GRID, jobs=_jobs())
    assert report.items == len(set(GRID))
    assert report.recovered == []  # no worker died; nothing was recomputed
    # Everything was computed in workers and rehydrated from the store.
    assert parallel.simulations == 0

    for item in GRID:
        if item.kind == "fixed":
            a = serial.fixed_run(item.benchmark, item.value)
            b = parallel.fixed_run(item.benchmark, item.value)
        else:
            a = serial.managed_run(item.benchmark, item.value)
            b = parallel.managed_run(item.benchmark, item.value)
            # Decision sequences are dataclasses: exact field equality.
            assert a.decisions == b.decisions, item
        assert a.total_ns == b.total_ns, item
        assert a.energy_j == b.energy_j, item


def test_base_traces_survive_the_parallel_path(tmp_path):
    """Traces rehydrated from workers feed predictors identically."""
    from repro.core.predictors import make_predictor

    serial = ExperimentRunner(CONFIG)
    parallel = ExperimentRunner(CONFIG, cache=ResultCache(tmp_path / "cache"))
    execute(parallel, fixed_items(CONFIG.benchmarks, (1.0,)), jobs=_jobs())

    predictor = make_predictor("DEP+BURST")
    for benchmark in CONFIG.benchmarks:
        direct = predictor.predict_total_ns(serial.base_trace(benchmark, 1.0), 4.0)
        via_cache = predictor.predict_total_ns(
            parallel.base_trace(benchmark, 1.0), 4.0
        )
        assert via_cache == direct


def test_serial_jobs1_uses_no_pool_and_no_cache(tmp_path):
    """jobs=1 is a plain loop: no processes, no ephemeral store imposed."""
    runner = ExperimentRunner(CONFIG)
    report = execute(runner, GRID[:3], jobs=1)
    assert report.jobs == 1
    assert runner.cache is None
    assert runner.simulations == len(set(GRID[:3]))


def test_cacheless_pool_leaves_no_ephemeral_cache(tmp_path, monkeypatch):
    """jobs>1 without a cache shares a temp store and removes it after."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    items = fixed_items(CONFIG.benchmarks, (1.0, 4.0)) + managed_items(
        CONFIG.benchmarks, (0.10,)
    )
    serial = ExperimentRunner(CONFIG)
    pooled = ExperimentRunner(CONFIG)
    execute(serial, items, jobs=1)
    report = execute(pooled, items, jobs=2)
    assert report.jobs == 2 and report.recovered == []
    assert pooled.cache is None
    assert list(tmp_path.glob("repro-ephemeral-cache-*")) == []
    for item in items:
        if item.kind == "fixed":
            a = serial.fixed_run(item.benchmark, item.value)
            b = pooled.fixed_run(item.benchmark, item.value)
        else:
            a = serial.managed_run(item.benchmark, item.value)
            b = pooled.managed_run(item.benchmark, item.value)
            assert a.decisions == b.decisions, item
        assert (a.total_ns, a.energy_j) == (b.total_ns, b.energy_j), item
    assert pooled.simulations == 0  # every result came back from workers
