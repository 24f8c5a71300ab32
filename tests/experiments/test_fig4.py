"""Figure 4 driver directly: prefetch hook, sweep parity, table shape."""

import pytest

from repro.experiments import fig4
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig
from tests.util import ScalarOracleRunner


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        scale=0.04,
        benchmarks=("xalan", "lusearch_fix"),
        static_freqs_ghz=(1.0, 2.0, 3.0, 4.0),
        quantum_ns=4.0e5,
    )


def test_work_prefetches_both_endpoint_frequencies(config):
    items = fig4.work(config)
    assert {(item.kind, item.benchmark, item.value) for item in items} == {
        ("fixed", benchmark, freq)
        for benchmark in config.benchmarks
        for freq in (1.0, 4.0)
    }


def test_paper_means_cover_both_directions_and_policies():
    assert set(fig4.PAPER_MEANS) == {
        ("up", "across"),
        ("up", "per"),
        ("down", "across"),
        ("down", "per"),
    }
    # The paper's headline: across-epoch CTP beats per-epoch both ways.
    assert fig4.PAPER_MEANS[("up", "across")] < fig4.PAPER_MEANS[("up", "per")]
    assert (
        fig4.PAPER_MEANS[("down", "across")]
        < fig4.PAPER_MEANS[("down", "per")]
    )


def test_table_shape_and_summary_rows(config):
    result = fig4.run(ExperimentRunner(config))
    assert result.experiment_id == "Fig 4"
    assert len(result.headers) == 5
    labels = [row[0] for row in result.rows]
    assert labels == ["xalan", "lusearch_fix", "MEAN |err|", "paper mean"]
    for row in result.rows:
        assert len(row) == 5


def test_sweep_and_direct_paths_agree(config):
    with_sweep = fig4.run(ExperimentRunner(config))
    direct_runner = ScalarOracleRunner(config)
    direct = fig4.run(direct_runner)
    assert direct.rows == with_sweep.rows
    assert not direct_runner._sweeps
