"""All figure experiments on a miniature two-benchmark configuration.

These validate the experiment *code paths*; ``repro-experiments claims``
checks the paper's quantitative bands on the full suite
(tests/experiments/test_claims.py at REPRO_SCALE=0.05, CI at 1.0).
"""

import pytest

from repro.experiments import fig1, fig3, fig4, fig6, fig7, table1
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        scale=0.04,
        benchmarks=("xalan", "lusearch_fix"),
        static_freqs_ghz=(1.0, 2.0, 3.0, 4.0),
        quantum_ns=4.0e5,
    )
    return ExperimentRunner(config)


def test_table1_rows(runner):
    result = table1.run(runner)
    assert len(result.rows) == 2
    assert result.rows[0][0] == "xalan"


def test_fig1_rows(runner):
    result = fig1.run(runner)
    assert [row[0] for row in result.rows] == ["2", "3", "4"]
    for row in result.rows:
        assert row[1].endswith("%")


def test_fig3_grid_complete(runner):
    data = fig3.collect(runner)
    for model in ("M+CRIT", "DEP+BURST"):
        assert set(data.up[model]) == {"xalan", "lusearch_fix"}
        assert set(data.up[model]["xalan"]) == {2.0, 3.0, 4.0}
        assert set(data.down[model]["xalan"]) == {3.0, 2.0, 1.0}
    results = fig3.run(runner)
    assert len(results) == 2
    assert "MEAN |err|" in str(results[0].rows[-2][0])


def test_fig3_ordering_even_at_tiny_scale(runner):
    data = fig3.collect(runner)
    assert data.mean_abs_at("up", "DEP+BURST", 4.0) < data.mean_abs_at(
        "up", "M+CRIT", 4.0
    )


def test_fig4_rows(runner):
    result = fig4.run(runner)
    labels = [row[0] for row in result.rows]
    assert "xalan" in labels and "MEAN |err|" in labels


def test_fig6_structure(runner):
    results = fig6.run(runner)
    assert len(results) == 2  # 5% and 10%
    for result in results:
        names = [row[0] for row in result.rows]
        assert "xalan" in names
        assert any("MEAN" in str(n) for n in names)


def test_fig7_structure(runner):
    results = fig7.run(runner)
    for result in results:
        header = list(result.headers)
        assert "dynamic saving" in header
        assert "static-optimal saving" in header
        assert len(result.rows) >= 2


def test_cli_runs_cheap_experiments(capsys):
    from repro.experiments import cli

    exit_code = cli.main(["table2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Table II" in captured.out


def test_sensitivity_surface(runner):
    from repro.experiments import sensitivity

    result = sensitivity.run(runner)
    assert len(result.rows) == 6  # 3 up + 3 down targets
    assert result.rows[0][0].startswith("1 GHz")
    assert result.rows[-1][0].startswith("4 GHz")
    text = result.to_text()
    assert "DEP+BURST" in text
