"""Unit tests of the parallel fan-out plumbing (`experiments.parallel`).

The end-to-end bit-parity of the pooled path is pinned separately in
``test_parallel_parity.py``; this file covers the pieces — work-item
validation, job resolution, grid partitioning, and recovery from a
worker that dies outright.
"""

import multiprocessing
import os

import pytest

from repro.common.errors import ConfigError
from repro.common.validation import resolve_jobs
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    WorkItem,
    _partition,
    execute,
    fixed_items,
    managed_items,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

CONFIG = ExperimentConfig(
    scale=0.02,
    benchmarks=("pmd_scale", "lusearch_fix"),
    static_freqs_ghz=(1.0, 4.0),
    thresholds=(0.10,),
    quantum_ns=2.0e5,
)


def test_work_item_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown work kind"):
        WorkItem("sweep", "pmd_scale", 1.0)


def test_work_item_rounds_value_for_stable_dedup():
    a = WorkItem("fixed", "pmd_scale", 1.0000000001)
    b = WorkItem("fixed", "pmd_scale", 1.0)
    assert a == b
    assert len({a, b}) == 1


def test_item_builders_cover_the_grid():
    fixed = fixed_items(("a", "b"), (1.0, 2.0))
    assert len(fixed) == 4
    assert all(item.kind == "fixed" for item in fixed)
    managed = managed_items(("a",), (0.05, 0.10))
    assert [item.value for item in managed] == [0.05, 0.10]


def test_resolve_jobs_explicit_env_and_errors(monkeypatch):
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ConfigError, match="REPRO_JOBS"):
        resolve_jobs()
    with pytest.raises(ConfigError, match=">= 1"):
        resolve_jobs(0)


def test_partition_keeps_benchmarks_together_when_jobs_are_few():
    grid = sorted(fixed_items(("a", "b"), (1.0, 2.0, 3.0)))
    batches = _partition(grid, jobs=2)
    assert len(batches) == 2
    for batch in batches:
        assert len({item.benchmark for item in batch}) == 1


def test_partition_splits_largest_batch_for_spare_workers():
    grid = sorted(fixed_items(("a",), (1.0, 2.0, 3.0, 4.0)))
    batches = _partition(grid, jobs=2)
    assert len(batches) == 2
    assert sorted(len(batch) for batch in batches) == [2, 2]
    assert sorted(item for batch in batches for item in batch) == grid


def test_partition_never_splits_single_items():
    grid = [WorkItem("fixed", "a", 1.0)]
    assert _partition(grid, jobs=8) == [grid]


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patched _apply reaches workers only through fork",
)
def test_killed_worker_items_are_recomputed_in_the_parent(
    monkeypatch, tmp_path
):
    parent = os.getpid()
    real_apply = parallel._apply

    def dying_apply(runner, item):
        if os.getpid() != parent and item.benchmark == "pmd_scale":
            os._exit(9)  # a hard kill, not a Python exception
        return real_apply(runner, item)

    monkeypatch.setattr(parallel, "_apply", dying_apply)
    grid = fixed_items(CONFIG.benchmarks, (1.0, 4.0))
    runner = ExperimentRunner(CONFIG, cache=ResultCache(tmp_path))
    report = execute(runner, grid, jobs=2)

    recovered = {item for item, _ in report.recovered}
    assert {item for item in grid if item.benchmark == "pmd_scale"} <= recovered
    assert all("BrokenProcessPool" in error for _, error in report.recovered)
    reference = ExperimentRunner(CONFIG)
    for item in grid:
        a = runner.fixed_run(item.benchmark, item.value)
        b = reference.fixed_run(item.benchmark, item.value)
        assert a.total_ns == b.total_ns, item
        assert a.energy_j == b.energy_j, item
