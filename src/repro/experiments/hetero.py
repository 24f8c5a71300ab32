"""Heterogeneous hardware: the energy manager across node × uncore grids.

The paper's energy-manager case study (Figure 6) runs on one machine:
the i7-4770K ladder, one V/f curve, one uncore clock. This experiment
re-runs the manager's *policy question* — lowest frequency within a
tolerable slowdown — across the heterogeneous axes of PR 9:

* **technology node** — each (node, scaling) point of
  :data:`NODE_GRID` re-derives the V/f table with Lumos-style Vdd
  scaling and a Vth floor, so deep ITRS nodes lose their lowest set
  points (``f_min`` rises: dim silicon) while conservative nodes keep
  the full ladder at higher voltage;
* **uncore frequency** — each scale in :data:`UNCORE_SCALES`
  multiplies the non-scaling (memory/stall) portion of every epoch,
  evaluated through the sweep kernels' ``(core_freq, uncore_scale)``
  target tuples.

The evaluation is *static re-prediction* over the retained 4 GHz base
trace: for every grid point, DEP+BURST predicts the whole run at every
supported set point of the node's table, the manager's min-energy rule
picks the lowest one within the threshold, and the node-scaled power
model turns the pick into an energy estimate. The predictors only see
counters and epochs, so no re-simulation is needed — the whole grid
costs one trace per benchmark and is fully deterministic (the property
the CI ``hetero-smoke`` job pins with cached-vs-fresh byte parity on
the figure JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.burst import with_burst
from repro.core.crit import crit_nonscaling
from repro.core.dep import DepPredictor
from repro.energy.power import PowerModel, node_power_config
from repro.energy.vftable import NodeVfTable, get_tech_node
from repro.experiments.report import ExperimentResult, pct
from repro.experiments.runner import ExperimentRunner

#: (node_nm, scaling) grid: the four ITRS nodes plus the conservative
#: 16 nm point, whose full ladder at high voltage contrasts with ITRS
#: 16 nm's clipped one.
NODE_GRID: Tuple[Tuple[int, str], ...] = (
    (45, "itrs"),
    (32, "itrs"),
    (22, "itrs"),
    (16, "itrs"),
    (16, "cons"),
)

#: Uncore scales (reference_uncore / target_uncore): 1.0 is the paper's
#: machine, 2.0 a half-speed uncore doubling memory/stall time.
UNCORE_SCALES: Tuple[float, ...] = (1.0, 2.0)

#: Tolerable slowdown of the manager policy being re-run.
THRESHOLD = 0.05

#: Base frequency whose retained trace feeds the whole grid.
BASE_FREQ_GHZ = 4.0

#: Schema version of the figure payload.
FIGURE_VERSION = 1


def _predictor() -> DepPredictor:
    return DepPredictor(estimator=with_burst(crit_nonscaling), name="DEP+BURST")


def work(config):
    """Ground-truth grid (parallel prefetch hook): one 4 GHz run each."""
    from repro.experiments.parallel import fixed_items

    return fixed_items(config.benchmarks, (BASE_FREQ_GHZ,))


def _aggregate_counters(trace):
    """Whole-run counter totals (the energy proxy's activity input)."""
    total = None
    for record in trace.intervals:
        if total is None:
            total = record.aggregate().copy()
        else:
            total.add(record.aggregate())
    if total is None:
        raise ValueError(f"trace of {trace.program_name} has no intervals")
    return total


def _node_table(spec, node_nm: int, scaling: str) -> NodeVfTable:
    """The V/f table of one node grid point over ``spec``'s ladder."""
    return NodeVfTable(
        spec,
        node_nm,
        scaling,
        min_freq_ghz=spec.min_freq_ghz,
        max_freq_ghz=spec.max_freq_ghz,
        freq_step_ghz=spec.freq_step_ghz,
    )


def evaluate_grid_point(
    runner: ExperimentRunner,
    benchmark: str,
    node_nm: int,
    scaling: str,
    uncore_scale: float,
    predictor: Optional[DepPredictor] = None,
) -> Dict[str, float]:
    """The manager's static pick for one (benchmark, node, uncore) cell.

    Returns the cell's figure record: the node's frequency floor, the
    chosen set point, its predicted slowdown against the node's fastest
    set point, the predicted time, and the estimated energy saving of
    the pick versus running the node flat-out.
    """
    predictor = predictor or _predictor()
    spec = runner.bundle(benchmark).spec
    table = _node_table(spec, node_nm, scaling)
    candidates = table.set_points()
    f_max = candidates[-1]
    sweep = runner.trace_sweep(benchmark, BASE_FREQ_GHZ)
    targets = [(freq, uncore_scale) for freq in candidates]
    values = sweep.predict(predictor, targets, base_freq_ghz=BASE_FREQ_GHZ)
    predictions = dict(zip(candidates, values))
    predicted_at_max = predictions[f_max]
    chosen, chosen_slowdown = f_max, 0.0
    if predicted_at_max > 0:
        for candidate in candidates:  # ascending: lowest within bound wins
            slowdown = predictions[candidate] / predicted_at_max - 1.0
            if slowdown <= THRESHOLD:
                chosen, chosen_slowdown = candidate, slowdown
                break
    node = get_tech_node(node_nm, scaling)
    model = PowerModel(spec, node_power_config(node), vf_table=table)
    counters = _aggregate_counters(runner.base_trace(benchmark, BASE_FREQ_GHZ))
    energy_chosen = model.interval_energy_j(
        counters, predictions[chosen], chosen
    )
    energy_flat = model.interval_energy_j(counters, predicted_at_max, f_max)
    saving = 1.0 - energy_chosen / energy_flat if energy_flat > 0 else 0.0
    return {
        "f_min_ghz": table.f_min_ghz,
        "f_max_ghz": table.f_max_ghz,
        "chosen_freq_ghz": chosen,
        "predicted_slowdown": chosen_slowdown,
        "predicted_ms": predictions[chosen] * 1e-6,
        "energy_saving": saving,
    }


def figure_payload(runner: ExperimentRunner) -> Dict:
    """The full node × uncore grid as a JSON-compatible figure payload.

    Deterministic for a fixed configuration: the grid is pure
    re-prediction over retained base traces, and every float comes from
    the same IEEE-754 operations regardless of cache state — the CI
    smoke job byte-compares a cached and a fresh rendering.
    """
    predictor = _predictor()
    benchmarks: Dict[str, Dict] = {}
    for benchmark in runner.config.benchmarks:
        # Ask for every cell's (set point, uncore) lanes at once, so the
        # trace's sweep folds them all in one CTP pass; each cell below
        # reads its lanes back from the sweep's memo.
        spec = runner.bundle(benchmark).spec
        runner.trace_sweep(benchmark, BASE_FREQ_GHZ).predict(
            predictor,
            [
                (freq, uncore_scale)
                for node_nm, scaling in NODE_GRID
                for freq in _node_table(spec, node_nm, scaling).set_points()
                for uncore_scale in UNCORE_SCALES
            ],
            base_freq_ghz=BASE_FREQ_GHZ,
        )
        cells: Dict[str, Dict] = {}
        for node_nm, scaling in NODE_GRID:
            for uncore_scale in UNCORE_SCALES:
                key = f"{node_nm}nm-{scaling}/uncore-{uncore_scale:g}x"
                cells[key] = evaluate_grid_point(
                    runner, benchmark, node_nm, scaling, uncore_scale,
                    predictor,
                )
        benchmarks[benchmark] = cells
    return {
        "version": FIGURE_VERSION,
        "threshold": THRESHOLD,
        "base_freq_ghz": BASE_FREQ_GHZ,
        "scale": runner.config.scale,
        "node_grid": [f"{nm}nm-{sc}" for nm, sc in NODE_GRID],
        "uncore_scales": list(UNCORE_SCALES),
        "benchmarks": benchmarks,
    }


def payload_bytes(payload: Dict) -> bytes:
    """Canonical byte rendering (the CI parity comparand)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def write_figure(path: str, runner: ExperimentRunner) -> Dict:
    """Render the figure payload to ``path``; return the payload."""
    payload = figure_payload(runner)
    with open(path, "wb") as handle:
        handle.write(payload_bytes(payload))
    return payload


def run(runner: ExperimentRunner) -> List[ExperimentResult]:
    """The node × uncore tables for the experiment report."""
    payload = figure_payload(runner)
    results: List[ExperimentResult] = []
    for uncore_scale in UNCORE_SCALES:
        result = ExperimentResult(
            experiment_id=f"Hetero (uncore {uncore_scale:g}x)",
            title=(
                f"Manager policy across tech nodes at uncore scale "
                f"{uncore_scale:g} (threshold {THRESHOLD:.0%})"
            ),
            headers=[
                "benchmark",
                "node",
                "f_min (GHz)",
                "chosen (GHz)",
                "slowdown",
                "energy saving",
            ],
        )
        for benchmark in runner.config.benchmarks:
            for node_nm, scaling in NODE_GRID:
                key = f"{node_nm}nm-{scaling}/uncore-{uncore_scale:g}x"
                cell = payload["benchmarks"][benchmark][key]
                result.rows.append(
                    (
                        benchmark,
                        f"{node_nm}nm-{scaling}",
                        f"{cell['f_min_ghz']:.3f}",
                        f"{cell['chosen_freq_ghz']:.3f}",
                        pct(cell["predicted_slowdown"]),
                        pct(cell["energy_saving"]),
                    )
                )
        results.append(result)
    return results


def main(argv=None) -> int:
    """``python -m repro.experiments.hetero --out fig.json``.

    The standalone renderer the CI smoke job drives twice (shared cache
    directory, then again against the warm cache) and byte-compares.
    """
    parser = argparse.ArgumentParser(
        description="Render the heterogeneous node x uncore figure JSON."
    )
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache location (default: REPRO_CACHE_DIR)",
    )
    args = parser.parse_args(argv)
    from repro.experiments.cache import ResultCache, default_cache_dir
    from repro.experiments.runner import ExperimentRunner

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    runner = ExperimentRunner(cache=cache)
    payload = write_figure(args.out, runner)
    n_cells = sum(len(cells) for cells in payload["benchmarks"].values())
    print(f"wrote {args.out}: {n_cells} grid cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
