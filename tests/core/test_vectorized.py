"""Vectorized predict kernel: bit-identical to the scalar path."""

import pytest

from repro.common.errors import PredictionError
from repro.core.epochs import Epoch, extract_epochs
from repro.core.predictors import get_predictor, predictor_names
from repro.core.sweep import estimator_key
from repro.core.vectorized import PredictJob, evaluate_predict_jobs, scalar_results
from repro.sim.run import simulate
from tests.util import barrier_program, lock_pair_program


@pytest.fixture(scope="module")
def epoch_sets():
    sets = []
    for program in (lock_pair_program(), barrier_program()):
        trace = simulate(program, 1.0).trace
        sets.append(extract_epochs(trace.events))
    return sets


TARGETS = (0.8, 1.0, 2.0, 2.7, 4.0)


def _jobs(epoch_sets):
    jobs = []
    for epochs in epoch_sets:
        for name in predictor_names():
            jobs.append(
                PredictJob(
                    predictor=get_predictor(name),
                    epochs=tuple(epochs),
                    base_freq_ghz=1.0,
                    target_freqs_ghz=TARGETS,
                )
            )
    return jobs


def test_batched_results_bit_identical_to_scalar(epoch_sets):
    jobs = _jobs(epoch_sets)
    batched = evaluate_predict_jobs(jobs)
    for job, result in zip(jobs, batched):
        assert result == scalar_results(job), job.predictor.name


def test_single_job_batch_matches_scalar(epoch_sets):
    job = _jobs(epoch_sets)[0]
    assert evaluate_predict_jobs([job]) == [scalar_results(job)]


def test_dep_family_recognized_by_vectorizer():
    for name in ("DEP", "DEP+BURST"):
        predictor = get_predictor(name)
        assert estimator_key(predictor.estimator) is not None


def test_empty_batch():
    assert evaluate_predict_jobs([]) == []


def test_empty_epochs_job(epoch_sets):
    job = PredictJob(
        predictor=get_predictor("DEP+BURST"),
        epochs=(),
        base_freq_ghz=1.0,
        target_freqs_ghz=(2.0,),
    )
    assert evaluate_predict_jobs([job]) == [scalar_results(job)]


def test_invalid_frequency_raises(epoch_sets):
    job = PredictJob(
        predictor=get_predictor("DEP+BURST"),
        epochs=tuple(epoch_sets[0]),
        base_freq_ghz=1.0,
        target_freqs_ghz=(0.0,),
    )
    with pytest.raises(PredictionError):
        evaluate_predict_jobs([job])
    with pytest.raises(PredictionError):
        scalar_results(job)


def test_negative_active_time_raises_on_both_paths(epoch_sets):
    from repro.arch.counters import CounterSet

    bad = Epoch(
        index=0, start_ns=0.0, end_ns=100.0,
        thread_deltas={0: CounterSet(active_ns=-1.0)},
        stall_tid=None, during_gc=False,
    )
    job = PredictJob(
        predictor=get_predictor("DEP+BURST"),
        epochs=(bad,),
        base_freq_ghz=1.0,
        target_freqs_ghz=(2.0,),
    )
    with pytest.raises(PredictionError):
        evaluate_predict_jobs([job])
    with pytest.raises(PredictionError):
        scalar_results(job)


def test_threadless_epoch_is_wait_time_on_both_paths():
    wait = Epoch(
        index=0, start_ns=0.0, end_ns=2_000.0, thread_deltas={},
        stall_tid=None, during_gc=False,
    )
    job = PredictJob(
        predictor=get_predictor("DEP+BURST"),
        epochs=(wait,),
        base_freq_ghz=1.0,
        target_freqs_ghz=(2.0, 4.0),
    )
    assert evaluate_predict_jobs([job]) == [[2_000.0, 2_000.0]]
    assert scalar_results(job) == [2_000.0, 2_000.0]
