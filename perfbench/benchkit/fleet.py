"""fleet: ``run_fleet`` with the tail-allocator over a pinned tenant count.

One rep is one worker process. Set-up is interpreter start, imports and
a cold profile build into an empty profile-store directory
(``ProfileStore.build`` through ``repro.sim.batch.run_batch``, publishing
every trace). The timed job is what a second ``repro-fleet run`` does on
that store: a fresh ``ProfileStore`` over a fresh ``ProfileCache`` of the
same directory, so every profile is read back through the store, then
the report is rendered and serialized.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Any, Dict, List

from benchkit import calib, checks

#: Pinned tenant count.
TENANTS = 2048
POLICY = "tail-allocator"

#: Relative tolerance on report floats: a change that only reorders a
#: float summation passes, anything larger does not.
REL_TOL = 1e-6

#: Aggregate fields compared exactly (counts and invariants).
EXACT = ("sla_misses", "peak_concurrency", "cap_violations", "solo_cap_overrides")

#: Aggregate/oracle floats compared within :data:`REL_TOL`.
FLOATS = (
    "energy_j", "baseline_energy_j", "mean_slowdown", "p50_slowdown",
    "p95_slowdown", "p99_slowdown", "mean_queue_wait_ms", "makespan_ms",
    "peak_power_w",
)


def fleet_seed(seed: int) -> int:
    """The fleet seed the benchmark derives from its own ``--seed``."""
    digest = hashlib.sha256(f"perfbench-fleet-{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_rep(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One rep in this (fresh) process; ``spec`` from the parent."""
    import repro.fleet as rf
    import repro.fleet.report

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        from benchkit import layers

        tracer = layers.install_all()
    # Functions are looked up on their modules after the tracer is
    # installed, so the benchmark's own calls are traced too.
    config = rf.FleetConfig(
        tenants=TENANTS, seed=fleet_seed(spec["seed"]), policy=POLICY
    )

    # Set-up: the cold profile build the timed job reads back.
    started = time.perf_counter()
    root = tracer.begin("bench.setup") if tracer else None
    tenants = rf.draw_tenants(rf.builtin_templates(), config.tenants, config.seed)
    cold = rf.ProfileStore(cache=rf.ProfileCache(spec["cache_dir"])).build(tenants)
    if tracer:
        tracer.end(root)
    fill_s = time.perf_counter() - started

    loop_before = calib.loop_median_s()
    started = time.perf_counter()
    cpu_started = time.process_time()
    root = tracer.begin("bench.job") if tracer else None
    report = rf.run_fleet(
        config, store=rf.ProfileStore(cache=rf.ProfileCache(spec["cache_dir"]))
    )
    text = rf.render_report(report)
    payload = repro.fleet.report.report_bytes(report)
    if tracer:
        tracer.end(root)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    loop = (loop_before + calib.loop_median_s()) / 2
    if tracer:
        tracer.uninstall()

    outputs = summarize(report, cold["profiles_built"])
    outputs["report_bytes"] = len(payload)
    outputs["text_bytes"] = len(text)
    out: Dict[str, Any] = {
        "ready": ready,
        "fill_s": fill_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "loop_s": loop,
        "outputs": outputs,
    }
    if tracer:
        out.update(layers.collect(tracer))
    return out


def summarize(report, cold_built: int) -> Dict[str, Any]:
    """What the check compares of one fleet report."""
    return {
        "tenants": len(report.tenants),
        "completed": sum(
            1
            for row in report.tenants
            if math.isfinite(row["end_ns"])
            and row["end_ns"] >= row["start_ns"] >= row["arrival_ns"]
        ),
        "aggregate": {k: report.aggregate[k] for k in EXACT + FLOATS},
        "oracle": dict(report.oracle),
        "cold_built": cold_built,
        "warm_built": report.diagnostics["profiles_built"],
        "warm_hits": report.diagnostics["cache_hits"],
    }


def check(outputs: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """Mismatches of one rep against the invariants and, when the seed
    has one, the pinned reference record.

    Invariants hold on every seed: every tenant completes, no cap
    violation, the cold build simulates every distinct shape and the
    timed run reads every one back without simulating.
    """
    problems: List[str] = []
    if outputs["tenants"] != TENANTS or outputs["completed"] != TENANTS:
        problems.append(
            f"{outputs['completed']}/{outputs['tenants']} tenants completed, "
            f"expected {TENANTS}"
        )
    if outputs["aggregate"]["cap_violations"] != 0:
        problems.append(f"{outputs['aggregate']['cap_violations']} cap violations")
    if outputs["warm_built"] != 0 or outputs["warm_hits"] != outputs["cold_built"]:
        problems.append(
            f"warm run built {outputs['warm_built']} and read "
            f"{outputs['warm_hits']} of {outputs['cold_built']} profiles"
        )
    if reference is None:
        return problems
    if outputs["cold_built"] != reference["cold_built"]:
        problems.append(
            f"{outputs['cold_built']} distinct profiles, "
            f"expected {reference['cold_built']}"
        )
    for key in EXACT:
        if outputs["aggregate"][key] != reference["aggregate"][key]:
            problems.append(
                f"{key} {outputs['aggregate'][key]} != {reference['aggregate'][key]}"
            )
    for block, keys in (("aggregate", FLOATS), ("oracle", tuple(reference["oracle"]))):
        for key in keys:
            got, want = outputs[block][key], reference[block][key]
            if not checks.close(got, want, REL_TOL):
                problems.append(f"{block}.{key} {got} != {want}")
    return problems


def reference_of(outputs: Dict[str, Any]) -> Dict[str, Any]:
    """The reference record a rep's outputs pin for its seed."""
    return {
        "cold_built": outputs["cold_built"],
        "aggregate": outputs["aggregate"],
        "oracle": outputs["oracle"],
    }
