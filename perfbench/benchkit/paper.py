"""paper-cold / paper-warm: the in-process ``repro-experiments`` path.

One rep is one worker process: interpreter start and the CLI's imports
(set-up), then ``suite_work`` -> ``execute`` -> ``run_experiments`` and
the text rendering the CLI prints (the timed job), at a pinned scale,
into a result-cache directory the parent prepared — empty for
paper-cold, filled once per run for paper-warm.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List

from benchkit import calib, checks

#: Pinned run-length scale of every paper workload.
SCALE = 0.02

#: The experiments regenerated, in the CLI's cache-friendly order. The
#: ``serve`` and ``fleet`` drivers are left out: serve and fleet have
#: workloads of their own.
EXPERIMENTS = (
    "table2", "table1", "sequential", "fig1", "fig3", "sensitivity",
    "fig4", "fig6", "fig7", "hetero",
)

#: Relative tolerance on full-precision floats (prediction errors).
REL_TOL = 1e-6


def run_rep(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One rep in this (fresh) process; ``spec`` from the parent."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.cli import run_experiments, suite_work
    from repro.experiments.parallel import execute
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.setup import ExperimentConfig

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        from benchkit import layers

        tracer = layers.install_all()
    loop_before = calib.loop_median_s()
    started = time.perf_counter()
    cpu_started = time.process_time()
    root = tracer.begin("bench.job") if tracer else None
    runner = ExperimentRunner(
        ExperimentConfig(scale=SCALE), cache=ResultCache(spec["cache_dir"])
    )
    execute(runner, suite_work(EXPERIMENTS, runner), jobs=1)
    if tracer:
        render = tracer.begin("experiments.render")
    results = run_experiments(EXPERIMENTS, runner)
    texts = [result.to_text() for result in results]
    if tracer:
        tracer.end(render)
        tracer.end(root)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    loop = (loop_before + calib.loop_median_s()) / 2
    if tracer:
        tracer.uninstall()

    from repro.experiments import fig3

    data = fig3.collect(runner)
    config = runner.config
    outputs = {
        "results": [
            {
                "id": result.experiment_id,
                "headers": [str(h) for h in result.headers],
                "rows": [[str(cell) for cell in row] for row in result.rows],
            }
            for result in results
        ],
        "pred_err_up_pct": 100.0 * data.mean_abs_at(
            "up", "DEP+BURST", config.targets_up_ghz[-1]
        ),
        "pred_err_down_pct": 100.0 * data.mean_abs_at(
            "down", "DEP+BURST", config.targets_down_ghz[-1]
        ),
        "simulations": runner.simulations,
        "text_bytes": sum(len(text) for text in texts),
    }
    out: Dict[str, Any] = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "loop_s": loop,
        "outputs": outputs,
    }
    if tracer:
        out.update(layers.collect(tracer))
    return out


def check(outputs: Dict[str, Any], reference: Dict[str, Any], cold: bool) -> List[str]:
    """Mismatches of one rep's outputs against the pinned reference.

    Table cells are compared by :func:`checks.cells_match`: text and
    integers exactly, formatted decimals within one unit of their last
    printed digit (so a change that only reorders a float sum passes).
    Full-precision prediction errors match within :data:`REL_TOL`.
    """
    problems: List[str] = []
    got = {r["id"]: r for r in outputs["results"]}
    want = {r["id"]: r for r in reference["results"]}
    if list(got) != list(want):
        problems.append(f"experiments {list(got)} != reference {list(want)}")
    for rid, ref in want.items():
        res = got.get(rid)
        if res is None:
            continue
        if res["headers"] != ref["headers"]:
            problems.append(f"{rid}: headers differ")
        if len(res["rows"]) != len(ref["rows"]):
            problems.append(f"{rid}: {len(res['rows'])} rows != {len(ref['rows'])}")
            continue
        for i, (row, ref_row) in enumerate(zip(res["rows"], ref["rows"])):
            if len(row) != len(ref_row) or not all(
                checks.cells_match(a, b) for a, b in zip(row, ref_row)
            ):
                problems.append(f"{rid} row {i}: {row} != {ref_row}")
    for key in ("pred_err_up_pct", "pred_err_down_pct"):
        if not math.isclose(outputs[key], reference[key], rel_tol=REL_TOL):
            problems.append(f"{key} {outputs[key]} != {reference[key]}")
    # Cold regenerates every ground truth; warm re-simulates none.
    expected_sims = reference["simulations"] if cold else 0
    if outputs["simulations"] != expected_sims:
        problems.append(
            f"{outputs['simulations']} simulation(s), expected {expected_sims}"
        )
    return problems


def reference_of(outputs: Dict[str, Any]) -> Dict[str, Any]:
    """The reference record a cold rep's outputs pin."""
    return {
        "scale": SCALE,
        "experiments": list(EXPERIMENTS),
        "results": outputs["results"],
        "pred_err_up_pct": outputs["pred_err_up_pct"],
        "pred_err_down_pct": outputs["pred_err_down_pct"],
        "simulations": outputs["simulations"],
    }
