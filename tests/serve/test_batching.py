"""Batch coalescing: one batch per loop turn, the size cap, poison isolation."""

import asyncio

import pytest

from repro.common.errors import PredictionError
from repro.core.epochs import Epoch, extract_epochs
from repro.core.predictors import get_predictor
from repro.core.vectorized import (
    PredictJob,
    evaluate_predict_jobs,
    scalar_results,
)
from repro.serve.batching import PredictBatcher
from repro.serve.metrics import MetricsRegistry
from repro.sim.run import simulate
from tests.util import lock_pair_program


@pytest.fixture(scope="module")
def epochs():
    trace = simulate(lock_pair_program(), 1.0).trace
    return tuple(extract_epochs(trace.events))


def _job(epochs, targets=(2.0, 4.0)):
    return PredictJob(
        predictor=get_predictor("DEP+BURST"),
        epochs=epochs,
        base_freq_ghz=1.0,
        target_freqs_ghz=targets,
    )


def _poison_job():
    from repro.arch.counters import CounterSet

    # Negative active time is rejected by decompose() on the scalar path
    # and by the columnar kernel alike.
    bad = Epoch(index=0, start_ns=0.0, end_ns=100.0,
                thread_deltas={0: CounterSet(active_ns=-1.0)},
                stall_tid=None, during_gc=False)
    return _job((bad,))


def test_concurrent_submits_coalesce_into_one_batch(epochs):
    metrics = MetricsRegistry(max_batch=64)
    batcher = PredictBatcher(max_batch=64, metrics=metrics)

    async def run():
        jobs = [_job(epochs) for _ in range(5)]
        return await asyncio.gather(*(batcher.submit(j) for j in jobs)), jobs

    results, jobs = asyncio.run(run())
    assert metrics.batch_sizes.total == 1  # one flush
    assert metrics.batch_sizes.sum == 5.0  # of five jobs
    for job, result in zip(jobs, results):
        assert result == scalar_results(job)


def test_max_batch_flushes_without_waiting(epochs):
    sizes = []

    def evaluate(jobs):
        sizes.append(len(jobs))
        return evaluate_predict_jobs(jobs)

    batcher = PredictBatcher(max_batch=2, evaluate=evaluate)

    async def run():
        jobs = [_job(epochs) for _ in range(5)]
        return await asyncio.gather(*(batcher.submit(j) for j in jobs)), jobs

    results, jobs = asyncio.run(asyncio.wait_for(run(), timeout=5.0))
    assert sizes == [2, 2, 1]
    for job, result in zip(jobs, results):
        assert result == scalar_results(job)


def test_lone_job_resolves_after_one_loop_turn(epochs, monkeypatch):
    batcher = PredictBatcher(max_batch=64)

    def no_timers(*args, **kwargs):
        raise AssertionError("the batcher armed a timer")

    async def run():
        monkeypatch.setattr(asyncio.get_running_loop(), "call_later", no_timers)
        task = asyncio.ensure_future(batcher.submit(_job(epochs)))
        await asyncio.sleep(0)  # the task submits and schedules a flush
        assert batcher.pending == 1
        await asyncio.sleep(0)  # one turn later the flush has run
        assert batcher.pending == 0
        return await task

    # wait_for arms its own timeout before run() patches call_later.
    result = asyncio.run(asyncio.wait_for(run(), timeout=5.0))
    assert result == scalar_results(_job(epochs))


def test_poison_job_does_not_sink_its_batch(epochs):
    batcher = PredictBatcher(max_batch=64)

    async def run():
        good = batcher.submit(_job(epochs))
        bad = batcher.submit(_poison_job())
        return await asyncio.gather(good, bad, return_exceptions=True)

    good_result, bad_result = asyncio.run(run())
    assert good_result == scalar_results(_job(epochs))
    assert isinstance(bad_result, PredictionError)


def test_flush_with_nothing_pending_is_a_noop():
    batcher = PredictBatcher(max_batch=4)
    batcher.flush()
    assert batcher.pending == 0


def test_max_batch_validation():
    with pytest.raises(ValueError):
        PredictBatcher(max_batch=0)
