"""Hetero experiment: node x uncore grid, determinism, sweep parity."""

import hashlib

import pytest

from repro.core.predictors import make_predictor
from repro.experiments import hetero
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

CONFIG = ExperimentConfig(
    scale=0.04,
    benchmarks=("xalan", "lusearch_fix"),
    quantum_ns=4.0e5,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(CONFIG)


@pytest.fixture(scope="module")
def payload(runner):
    return hetero.figure_payload(runner)


def test_work_is_one_base_run_per_benchmark():
    items = hetero.work(CONFIG)
    assert len(items) == len(CONFIG.benchmarks)


def test_payload_covers_the_full_grid(payload):
    assert payload["version"] == hetero.FIGURE_VERSION
    assert payload["node_grid"] == [
        f"{nm}nm-{sc}" for nm, sc in hetero.NODE_GRID
    ]
    for benchmark in CONFIG.benchmarks:
        cells = payload["benchmarks"][benchmark]
        assert len(cells) == len(hetero.NODE_GRID) * len(hetero.UNCORE_SCALES)
        for cell in cells.values():
            assert cell["f_min_ghz"] <= cell["chosen_freq_ghz"] <= cell["f_max_ghz"]
            assert cell["predicted_slowdown"] <= hetero.THRESHOLD or (
                cell["chosen_freq_ghz"] == cell["f_max_ghz"]
            )
            assert cell["predicted_ms"] > 0


def test_deep_itrs_nodes_raise_the_frequency_floor(payload):
    cells = payload["benchmarks"][CONFIG.benchmarks[0]]
    floor_45 = cells["45nm-itrs/uncore-1x"]["f_min_ghz"]
    floor_16 = cells["16nm-itrs/uncore-1x"]["f_min_ghz"]
    floor_16_cons = cells["16nm-cons/uncore-1x"]["f_min_ghz"]
    assert floor_16 > floor_45  # dim silicon under ITRS scaling
    assert floor_16_cons == floor_45  # conservative scaling keeps the ladder


def test_slow_uncore_never_raises_the_pick(payload):
    # Halving the uncore clock inflates the non-scaling portion, which
    # only shrinks relative slowdowns: the picked core frequency can
    # only stay or drop, and the predicted time can only grow.
    for benchmark in CONFIG.benchmarks:
        cells = payload["benchmarks"][benchmark]
        for node_nm, scaling in hetero.NODE_GRID:
            fast = cells[f"{node_nm}nm-{scaling}/uncore-1x"]
            slow = cells[f"{node_nm}nm-{scaling}/uncore-2x"]
            assert slow["chosen_freq_ghz"] <= fast["chosen_freq_ghz"]
            assert slow["predicted_ms"] >= fast["predicted_ms"]


def test_payload_bytes_are_deterministic(runner, payload):
    rebuilt = hetero.figure_payload(ExperimentRunner(CONFIG))
    assert hetero.payload_bytes(rebuilt) == hetero.payload_bytes(payload)


#: sha256 of the figure bytes at ``CONFIG``: pins every cell, so a change
#: that moved all uncore lanes alike (which cold-vs-warm parity misses)
#: still fails.
FIGURE_SHA256 = (
    "2ea212215816a544de9c230e67dba018d966b46dd3b6e162067812c8cb13a074"
)


def test_payload_bytes_are_pinned(payload):
    digest = hashlib.sha256(hetero.payload_bytes(payload)).hexdigest()
    assert digest == FIGURE_SHA256


def test_write_figure_round_trips(tmp_path, runner, payload):
    out = tmp_path / "hetero.json"
    written = hetero.write_figure(str(out), runner)
    assert out.read_bytes() == hetero.payload_bytes(written)
    assert hetero.payload_bytes(written) == hetero.payload_bytes(payload)


def test_grid_point_matches_scalar_prediction_path(runner):
    # Sweep-vs-scalar parity on the new (core_freq, uncore_scale) target
    # tuples: the grid cell's picks must be reproducible from scalar
    # predict_total_ns calls, bit for bit.
    benchmark = CONFIG.benchmarks[0]
    predictor = make_predictor("DEP+BURST")
    from repro.energy.vftable import NodeVfTable

    spec = runner.bundle(benchmark).spec
    trace = runner.base_trace(benchmark, hetero.BASE_FREQ_GHZ)
    for node_nm, scaling, uncore_scale in (
        (45, "itrs", 1.0), (16, "itrs", 2.0), (22, "itrs", 2.0)
    ):
        table = NodeVfTable(spec, node_nm, scaling)
        cell = hetero.evaluate_grid_point(
            runner, benchmark, node_nm, scaling, uncore_scale
        )
        scalar = {
            freq: predictor.predict_total_ns(
                trace, freq, uncore_scale=uncore_scale
            )
            for freq in table.set_points()
        }
        assert cell["predicted_ms"] == scalar[cell["chosen_freq_ghz"]] * 1e-6


def test_report_tables_one_per_uncore_scale(runner, payload):
    results = hetero.run(runner)
    assert len(results) == len(hetero.UNCORE_SCALES)
    for result in results:
        assert len(result.rows) == len(CONFIG.benchmarks) * len(
            hetero.NODE_GRID
        )
        assert result.headers[0] == "benchmark"
        for row in result.rows:
            assert row[4].endswith("%")  # slowdown
            assert row[5].endswith("%")  # energy saving
