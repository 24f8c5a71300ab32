"""Parallel fan-out of ground-truth simulations over worker processes.

The experiment suite's cost is a grid of independent simulations:
(benchmark × frequency) fixed runs and (benchmark × threshold) managed
runs. Each cell is deterministic — the simulator draws from RNG streams
keyed by (seed, purpose, index), never from shared mutable state — so
the grid can be computed in any order, in any process, with bit-identical
results. This module exploits that:

* a :class:`WorkItem` names one cell; drivers declare the cells they
  need via a module-level ``work(config)`` hook (see ``fig*.py``);
* :func:`execute` fans the deduplicated items out over a
  ``concurrent.futures.ProcessPoolExecutor``. Workers share one
  :class:`~repro.experiments.cache.ResultCache` with the parent: each
  worker persists its results under content-addressed keys and the
  parent rehydrates them from disk, so no large trace ever crosses the
  pipe;
* ``--jobs N`` on the CLI (or ``REPRO_JOBS``) picks the width; ``N=1``
  is a plain serial loop with no pool and no extra processes;
* the serial loop, each worker and the parent's final pass all go
  through :func:`_run_benchmarks`, one benchmark at a time, releasing
  each benchmark's program once its runs are done.

Failures are contained: a work item that dies in a worker — by raising,
or by taking the worker process down with it (an OOM kill, a hard
exit) — is recomputed serially in the parent, so parallelism is purely
an optimization.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.validation import resolve_jobs
from repro.experiments.cache import ResultCache   # home of this module's API
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig


@dataclass(frozen=True, order=True)
class WorkItem:
    """One independent ground-truth simulation of the experiment grid."""

    #: ``"fixed"`` (value = frequency in GHz) or ``"managed"`` (value =
    #: tolerable-slowdown threshold).
    kind: str
    benchmark: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "managed"):
            raise ConfigError(f"unknown work kind {self.kind!r}")
        object.__setattr__(self, "value", round(self.value, 6))


def fixed_items(
    benchmarks: Iterable[str], freqs_ghz: Iterable[float]
) -> Tuple[WorkItem, ...]:
    """Fixed-run items for the (benchmark × frequency) grid."""
    return tuple(
        WorkItem("fixed", bench, freq)
        for bench in benchmarks
        for freq in freqs_ghz
    )


def managed_items(
    benchmarks: Iterable[str], thresholds: Iterable[float]
) -> Tuple[WorkItem, ...]:
    """Managed-run items for the (benchmark × threshold) grid."""
    return tuple(
        WorkItem("managed", bench, threshold)
        for bench in benchmarks
        for threshold in thresholds
    )


@dataclass
class ExecutionReport:
    """What :func:`execute` did with the requested grid."""

    items: int = 0
    jobs: int = 1
    #: Items whose worker raised or died; they were recomputed in the
    #: parent.
    recovered: List[Tuple[WorkItem, str]] = field(default_factory=list)


# One runner per worker process, built by the pool initializer so every
# batch handled by that worker shares bundles and the disk cache.
_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _init_worker(config: ExperimentConfig, cache_root: str) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(config, cache=ResultCache(cache_root))


def _run_benchmarks(
    runner: ExperimentRunner,
    items: Iterable[WorkItem],
    contain: bool = False,
) -> List[Tuple[WorkItem, Optional[str]]]:
    """Compute ``items`` one benchmark at a time; ``(item, error)`` pairs.

    Each benchmark runs its fixed items, then its managed items, then
    releases its bundle, so one benchmark's program and GC cycles are
    resident at a time. With ``contain`` a failure is reported, not
    raised: a failed item carries its error for the parent to recompute.
    """
    by_benchmark: Dict[str, List[WorkItem]] = {}
    for item in sorted(items, key=lambda i: (i.benchmark, i.kind, i.value)):
        by_benchmark.setdefault(item.benchmark, []).append(item)
    results: List[Tuple[WorkItem, Optional[str]]] = []
    for bench, todo in by_benchmark.items():
        for item in todo:
            try:
                _apply(runner, item)
                results.append((item, None))
            except Exception as exc:  # contained: the parent recomputes
                if not contain:
                    raise
                results.append((item, f"{type(exc).__name__}: {exc}"))
        runner.bundle(bench).release()
    return results


def _run_batch(batch: Sequence[WorkItem]) -> List[Tuple[WorkItem, Optional[str]]]:
    """Compute one batch in a worker; results travel via the shared cache."""
    assert _WORKER_RUNNER is not None, "worker used before initialization"
    return _run_benchmarks(_WORKER_RUNNER, batch, contain=True)


def _partition(grid: Sequence[WorkItem], jobs: int) -> List[List[WorkItem]]:
    """Split the grid into batches that preserve per-benchmark reuse.

    All of a benchmark's runs share its bundle — the built program and,
    critically, the GC model's per-cycle cache, which costs as much to
    rebuild as a simulation. Scattering a benchmark's frequencies across
    workers rebuilds that state once per worker and can make the pool
    *slower* than the serial loop, so the unit of distribution is a
    per-benchmark batch; only when there are fewer benchmarks than
    workers are the largest batches split (halving latency at the price
    of one duplicated bundle build).
    """
    groups: dict = {}
    for item in grid:
        groups.setdefault(item.benchmark, []).append(item)
    batches = list(groups.values())
    while len(batches) < min(jobs, len(grid)):
        batches.sort(key=lambda b: (-len(b), b[0]))
        largest = batches[0]
        if len(largest) <= 1:
            break
        mid = (len(largest) + 1) // 2
        batches[:1] = [largest[:mid], largest[mid:]]
    return sorted(batches)  # deterministic submission order


def _apply(runner: ExperimentRunner, item: WorkItem):
    if item.kind == "fixed":
        return runner.fixed_run(item.benchmark, item.value)
    return runner.managed_run(item.benchmark, item.value)


def execute(
    runner: ExperimentRunner,
    items: Sequence[WorkItem],
    jobs: Optional[int] = None,
) -> ExecutionReport:
    """Materialize every item in ``runner``, fanning out over ``jobs`` processes.

    After this returns, each item is available in ``runner``'s in-memory
    maps (and on disk when caching): drivers hit warm lookups only. With
    ``jobs=1`` — or a single item — everything runs serially in-process.

    Every process works one benchmark at a time: its fixed runs, then its
    managed runs, then its bundle is released (``BenchmarkBundle.release``),
    so only one benchmark's program and GC cycles are resident at once.
    Cells are independent, so this order changes no result. Each cell
    is one :meth:`~repro.experiments.runner.ExperimentRunner.fixed_run`
    or :meth:`~repro.experiments.runner.ExperimentRunner.managed_run`
    call, whichever process computes it.

    A runner without a persistent cache gets an ephemeral one under the
    system temp dir for the life of the pool, since workers and parent
    need a common store to exchange results through; the parent reads
    every result back into memory before the directory is removed.
    """
    grid = sorted(set(items))
    jobs = resolve_jobs(jobs)
    report = ExecutionReport(items=len(grid), jobs=jobs)
    if jobs == 1 or len(grid) <= 1:
        report.jobs = 1
        _run_benchmarks(runner, grid)
        return report

    # Only the fan-out needs the process pool (and multiprocessing).
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ephemeral = None
    if runner.cache is None:
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-ephemeral-cache-")
        runner.cache = ResultCache(ephemeral.name)
    try:
        batches = _partition(grid, jobs)
        failures = {}
        finished = set()
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(batches)),
                initializer=_init_worker,
                initargs=(runner.config, str(runner.cache.root)),
            ) as pool:
                for results in pool.map(_run_batch, batches, chunksize=1):
                    for item, error in results:
                        finished.add(item)
                        if error is not None:
                            failures[item] = error
        except BrokenProcessPool as exc:
            # A worker died outright and the pool dropped every pending
            # batch: recompute each unreported item in the parent (a cache
            # hit where a worker had already published it).
            for item in grid:
                if item not in finished:
                    failures[item] = f"BrokenProcessPool: {exc}"
        report.recovered = [
            (item, failures[item]) for item in grid if item in failures
        ]
        _run_benchmarks(runner, grid)  # cache hits for worker-computed items
    finally:
        if ephemeral is not None:  # results are in memory now
            runner.cache = None
            ephemeral.cleanup()
    return report
