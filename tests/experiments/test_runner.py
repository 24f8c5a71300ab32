"""Experiment runner caching, on a miniature configuration."""

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        scale=0.02,
        benchmarks=("pmd_scale", "lusearch_fix"),
        static_freqs_ghz=(1.0, 4.0),
        # The miniature runs last a few ms; shrink the quantum so the
        # energy manager actually gets interval decisions.
        quantum_ns=2.0e5,
    )
    return ExperimentRunner(config)


def test_fixed_run_is_cached(runner):
    a = runner.fixed_run("pmd_scale", 1.0)
    b = runner.fixed_run("pmd_scale", 1.0)
    assert a is b
    assert a.total_ns > 0
    assert a.energy_j > 0


def test_base_traces_retained_others_dropped(runner):
    assert runner.fixed_run("pmd_scale", 1.0).trace is not None
    assert runner.fixed_run("pmd_scale", 4.0).trace is not None
    assert runner.fixed_run("pmd_scale", 2.0).trace is None
    with pytest.raises(ValueError):
        runner.base_trace("pmd_scale", 2.0)


def test_higher_frequency_is_faster(runner):
    t1 = runner.fixed_run("lusearch_fix", 1.0).total_ns
    t4 = runner.fixed_run("lusearch_fix", 4.0).total_ns
    assert t4 < t1


def test_managed_run_cached_and_bounded(runner):
    a = runner.managed_run("pmd_scale", 0.10)
    b = runner.managed_run("pmd_scale", 0.10)
    assert a is b
    baseline = runner.fixed_run("pmd_scale", 4.0)
    assert a.total_ns <= baseline.total_ns * 1.2
    assert 0 < a.mean_freq_ghz <= 4.0


def test_bundle_reuse(runner):
    assert runner.bundle("pmd_scale") is runner.bundle("pmd_scale")
    assert runner.power_model("pmd_scale") is runner.power_model("pmd_scale")
