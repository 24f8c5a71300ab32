"""Figure 1: error-vs-target series, M+CRIT vs DEP+BURST."""

import pytest

from repro.experiments import fig1
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig
from tests.util import ScalarOracleRunner

CONFIG = ExperimentConfig(
    scale=0.04,
    benchmarks=("xalan", "lusearch_fix"),
    quantum_ns=4.0e5,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(CONFIG)


def test_work_covers_base_and_target_grid():
    items = fig1.work(CONFIG)
    freqs = sorted({1.0, *CONFIG.targets_up_ghz})
    assert len(items) == len(CONFIG.benchmarks) * len(freqs)


def test_one_row_per_upward_target(runner):
    result = fig1.run(runner)
    assert [row[0] for row in result.rows] == [
        f"{t:.0f}" for t in CONFIG.targets_up_ghz
    ]
    assert len(result.headers) == len(result.rows[0])


def test_rows_carry_error_percentages_and_paper_values(runner):
    result = fig1.run(runner)
    for row in result.rows:
        for cell in row[1:]:
            assert cell.endswith("%")
            assert float(cell.rstrip("%")) >= 0.0  # absolute errors
    # Paper series are pinned constants, rendered as-is.
    by_target = {row[0]: row for row in result.rows}
    assert by_target["4"][2] == "27.0%"
    assert by_target["4"][4] == "6.0%"


def test_depburst_beats_mcrit_at_the_highest_target(runner):
    result = fig1.run(runner)
    top = result.rows[-1]
    assert float(top[3].rstrip("%")) <= float(top[1].rstrip("%"))


def test_sweep_and_scalar_modes_agree(runner):
    oracle = ScalarOracleRunner(CONFIG)
    oracle._bundles = runner._bundles  # share ground truths
    oracle._fixed = runner._fixed
    assert fig1.run(oracle).rows == fig1.run(runner).rows
    assert not oracle._sweeps
