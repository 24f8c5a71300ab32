"""Speedup floors: the CI gates on fast paths that perfbench does not time.

Usage::

    PYTHONPATH=src python tools/speedup_floors.py

Takes no options and writes no files. Runs six pinned measurements and
prints one line per floor: the reading and its pass line. Exits 1 when
any reading falls below its line. Each speedup compares two computations
whose outputs must be identical; the run aborts (exit 1) as soon as a
pair diverges, so every reading is pure mechanics. Each group of floors
below is measured in a fresh interpreter of its own, so no group's heap
and caches weigh on the next one's reading.

``hotpath``
    DES core throughput (events/s) of the fast engine on the GC-free,
    lock-free ``hotpath_stress`` program, best of 5 reps.
``sweep figures grid``
    The fig3-style error grid over xalan and lusearch base traces: every
    predictor x target pair through ``predict_total_ns`` vs a fresh
    :class:`~repro.core.sweep.TraceSweep` per rep, best of 3 reps each.
``sweep governor quantum``
    An ``EnergyManagerSession`` stepped over the same benchmarks' 1 ms
    managed-run quanta, ``sweep=False`` vs ``sweep=True``, best of 3.
``batch corpus``
    32 instances (4 synthetic memory-heavy families x 8 set points):
    one :func:`~repro.sim.run.simulate` per instance vs one
    :func:`~repro.sim.batch.run_batch`, best of 3 reps each, the two
    sides alternating rep by rep.
``fleet cold`` / ``fleet warm``
    One drawn fleet's profile build: naive per-tenant vs deduplicated
    serial batch (cold), serial batch vs a rebuild from the store it
    filled (warm). The naive side simulates each tenant with a fresh
    program and a private GC model, so it builds every GC cycle once
    per tenant; the batch shares one GC model per workload group and
    builds each cycle once. A faster serial batch lifts the cold ratio
    and lowers the warm one, whose numerator it is. Every build then
    drives one ``run_fleet`` and the reports must be byte-identical on
    the determinism view.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, NoReturn, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch.specs import haswell_i7_4770k  # noqa: E402
from repro.core.predictors import make_predictor, predictor_names  # noqa: E402
from repro.core.sweep import TraceSweep  # noqa: E402
from repro.energy.manager import (  # noqa: E402
    EnergyManager,
    EnergyManagerSession,
    ManagerConfig,
    interval_epochs,
)
from repro.fleet.corpus import builtin_templates, draw_tenants  # noqa: E402
from repro.fleet.engine import FleetConfig, run_fleet  # noqa: E402
from repro.fleet.profile_cache import ProfileCache  # noqa: E402
from repro.fleet.profiles import ProfileStore  # noqa: E402
from repro.fleet.report import report_identity_bytes  # noqa: E402
from repro.sim.batch import BatchInstance, run_batch  # noqa: E402
from repro.sim.run import simulate, simulate_managed  # noqa: E402
from repro.sim.serialize import trace_to_dict  # noqa: E402
from repro.sim.system import System  # noqa: E402
from repro.workloads.registry import get_benchmark  # noqa: E402
from repro.workloads.synthetic import (  # noqa: E402
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

# Pass lines. The retired per-benchmark gates failed a ratio gate when
# the reading fell below 70% of a committed baseline *and* below an
# absolute floor, so their effective line is min(floor, 0.70 x baseline);
# the baselines are the committed readings those gates compared against.

#: 0.70 x the fast engine's 899.3887828435604 events/s (BENCH_hotpath.json).
HOTPATH_MIN_EVENTS_PER_S = 0.70 * 899.3887828435604
#: min(3.0, 0.70 x 11.081247226958784), the figures_grid speedup in
#: BENCH_sweep.json: the absolute 3x floor binds.
FIGURES_MIN_SPEEDUP = min(3.0, 0.70 * 11.081247226958784)
#: min(5.0, 0.70 x 6.868503856277873), the governor_quantum speedup in
#: BENCH_sweep.json: 4.808x, the baseline ratio binds.
GOVERNOR_MIN_SPEEDUP = min(5.0, 0.70 * 6.868503856277873)
#: Guards run_batch's group sharing (one static-program warm per group
#: and set point, one GC model per group) against solo simulate, both
#: pre-timing through the one chunked time_batch_multi kernel. The old
#: line, 2.627x from BENCH_batch.json, compared against a solo side that
#: pre-timed through a slower unchunked single-frequency kernel; with one
#: kernel the solo side runs about 2.5x faster, and 8 readings have a
#: median of 1.3503. min(3.0, 0.70 x 1.3503) = 0.945 is below 1.0, so
#: the line is 1.0: batching must not lose to solo.
BATCH_MIN_SPEEDUP = max(1.0, min(3.0, 0.70 * 1.350314937959471))
#: Absolute floors of the fleet gate (BENCH_fleet.json's ratios only warned).
FLEET_COLD_MIN_SPEEDUP = 3.0
FLEET_WARM_MIN_SPEEDUP = 5.0

#: (name, reading, pass line, unit, detail) of one measured floor.
Reading = Tuple[str, float, float, str, str]


def _best(
    *runs: Callable[[object], object],
    reps: int,
    setup: Callable[[], object] = lambda: None,
) -> List[Tuple[float, object]]:
    """(minimum wall, last result) of each of ``runs`` over ``reps`` reps.

    Each rep times ``run(setup())`` once per run, in turn, so the sides
    of a ratio alternate rep by rep and a drift in host speed lands on
    both rather than on one. ``setup`` runs outside the timed region,
    once per timed call.
    """
    walls: List[List[float]] = [[] for _ in runs]
    results: List[object] = [None] * len(runs)
    for _ in range(reps):
        for i, run in enumerate(runs):
            state = setup()
            start = time.perf_counter()
            results[i] = run(state)
            walls[i].append(time.perf_counter() - start)
    return [(min(w), result) for w, result in zip(walls, results)]


def _diverged(what: str) -> NoReturn:
    raise SystemExit(f"FATAL: {what} diverge; no speedup is measured")


def _trace_bytes(trace) -> bytes:
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


def hotpath_floor() -> List[Reading]:
    # Three application threads plus the JIT thread exactly fill the four
    # cores; no allocation (no GC cycles) and no critical sections, so the
    # time goes to segment timing, plans, the event queue and trace appends.
    program = build_synthetic_program(SyntheticWorkloadConfig(
        name="hotpath_stress", seed=212, n_threads=3,
        n_units=8_000,  # scale 0.2 of the 40,000-unit full-length program
        unit_insns=200_000, unit_insns_cv=0.3, cpi=0.55,
        clusters_per_kinsn=0.02, chain_depth_mean=1.6, chain_locality=0.5,
        alloc_bytes_per_unit=0, cs_probability=0.0, barrier_period=2000,
        phase_amplitude=0.4, phase_periods=6.0, memory_skew=0.2,
        heap_mb=64, nursery_mb=16, survival_rate=0.1,
    ))
    [(wall, trace)] = _best(
        lambda system: system.run(), reps=5,
        setup=lambda: System(program, freq_ghz=2.5, engine="fast"),
    )
    events = len(trace.events)
    return [(
        "hotpath", events / wall, HOTPATH_MIN_EVENTS_PER_S, "events/s",
        f"{events} events in {wall:.3f}s",
    )]


def sweep_floors() -> List[Reading]:
    benchmarks = ("xalan", "lusearch")
    scale = 0.2
    directions = (
        (1.0, (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)),
        (4.0, (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)),
    )
    programs = [get_benchmark(benchmark, scale).program for benchmark in benchmarks]
    predictors = [make_predictor(name) for name in predictor_names()]
    traces = [
        (simulate(program, base).trace, list(targets))
        for program in programs
        for base, targets in directions
    ]
    [(scalar_s, scalar_out)] = _best(lambda _: [
        [[p.predict_total_ns(trace, t) for t in targets] for p in predictors]
        for trace, targets in traces
    ], reps=3)
    # A fresh TraceSweep per rep: each rep pays one full decomposition
    # per trace, the cost a figure driver pays on its first request.
    [(sweep_s, sweep_out)] = _best(lambda _: [
        [TraceSweep(trace).predict(p, targets) for p in predictors]
        for trace, targets in traces
    ], reps=3)
    if scalar_out != sweep_out:
        _diverged("sweep and scalar figure grids")
    readings = [(
        "sweep figures grid", scalar_s / sweep_s, FIGURES_MIN_SPEEDUP, "x",
        f"scalar {scalar_s:.3f}s / sweep {sweep_s:.3f}s",
    )]

    spec = haswell_i7_4770k()
    config = ManagerConfig(tolerable_slowdown=0.10)
    steps = []
    for program in programs:
        trace = simulate_managed(
            program, EnergyManager(spec, config), spec=spec, quantum_ns=1.0e6,
        ).trace
        steps += [
            (record, interval_epochs(record, trace))
            for record in trace.intervals[:-1]
        ]

    def govern(session):
        for record, epochs in steps:
            session.step(record, epochs)
        return session

    walls, logs = {}, {}
    for sweep in (False, True):
        [(walls[sweep], session)] = _best(govern, reps=3, setup=lambda: (
            EnergyManagerSession(
                spec, config, predictor=make_predictor("DEP+BURST"),
                sweep=sweep,
            )
        ))
        logs[sweep] = [
            (d.interval_index, d.base_freq_ghz, d.chosen_freq_ghz,
             d.predicted_slowdown)
            for d in session.decisions
        ]
    if logs[False] != logs[True]:
        _diverged("sweep and scalar governor decisions")
    readings.append((
        "sweep governor quantum", walls[False] / walls[True],
        GOVERNOR_MIN_SPEEDUP, "x",
        f"scalar {walls[False]:.3f}s / sweep {walls[True]:.3f}s, "
        f"{len(steps)} quanta",
    ))
    return readings


def batch_floor() -> List[Reading]:
    # GC-free, lock-free families with dense LLC-miss chains and few large
    # units: the cost is static-program timing, which run_batch pre-times
    # once per (program, spec) group instead of once per instance.
    shared = dict(
        unit_insns=8_000_000, unit_insns_cv=0.25, cpi=0.6,
        chain_locality=0.4, alloc_bytes_per_unit=0, cs_probability=0.0,
        heap_mb=64, nursery_mb=16, survival_rate=0.1,
    )
    families = [
        SyntheticWorkloadConfig(
            name="batch_mem", seed=11, n_threads=3, n_units=100,
            clusters_per_kinsn=2.0, chain_depth_mean=2.2,
            phase_amplitude=0.3, phase_periods=4.0, memory_skew=0.3,
            **shared,
        ),
        SyntheticWorkloadConfig(
            name="batch_deep", seed=23, n_threads=2, n_units=90,
            clusters_per_kinsn=1.4, chain_depth_mean=3.5,
            phase_amplitude=0.0, memory_skew=0.0, **shared,
        ),
        SyntheticWorkloadConfig(
            name="batch_skew", seed=37, n_threads=4, n_units=80,
            clusters_per_kinsn=2.4, chain_depth_mean=1.8,
            phase_amplitude=0.2, phase_periods=6.0, memory_skew=0.6,
            **shared,
        ),
        SyntheticWorkloadConfig(
            name="batch_phase", seed=53, n_threads=3, n_units=90,
            clusters_per_kinsn=1.8, chain_depth_mean=2.6,
            phase_amplitude=0.5, phase_periods=3.0, memory_skew=0.2,
            **shared,
        ),
    ]
    spec = haswell_i7_4770k()
    instances = [
        # Coarse quantum: the corpus needs traces, not interval streams.
        BatchInstance(
            program=program, freq_ghz=freq, spec=spec, quantum_ns=5.0e7,
            label=f"{program.name}@{freq}",
        )
        for program in map(build_synthetic_program, families)
        for freq in (1.0, 1.375, 1.875, 2.25, 2.625, 3.0, 3.5, 4.0)
    ]
    (sequential_s, sequential), (batched_s, batched) = _best(
        lambda _: [
            simulate(inst.program, inst.freq_ghz, spec=spec,
                     quantum_ns=inst.quantum_ns)
            for inst in instances
        ],
        lambda _: run_batch(instances).results,
        reps=3,
    )
    for inst, seq, bat in zip(instances, sequential, batched):
        if _trace_bytes(seq.trace) != _trace_bytes(bat.trace):
            _diverged(f"batched and sequential traces of {inst.label}")
    return [(
        "batch corpus", sequential_s / batched_s, BATCH_MIN_SPEEDUP, "x",
        f"sequential {sequential_s:.3f}s / batched {batched_s:.3f}s, "
        f"{len(instances)} instances",
    )]


def fleet_floors() -> List[Reading]:
    tenants, seed = 192, 7
    specs = draw_tenants(builtin_templates(), tenants, seed)
    with tempfile.TemporaryDirectory(prefix="repro-speedup-floors-") as tmp:
        naive = ProfileStore()
        [(naive_s, _)] = _best(
            lambda _: naive.build(specs, batch=False), reps=1
        )
        serial = ProfileStore(cache=ProfileCache(tmp))
        [(serial_s, built)] = _best(lambda _: serial.build(specs), reps=1)
        warm = ProfileStore(cache=ProfileCache(tmp))
        [(warm_s, hit)] = _best(lambda _: warm.build(specs), reps=1)
        if hit["cache_hits"] != built["profiles_total"]:
            raise SystemExit(
                f"FATAL: the warm build hit {hit['cache_hits']} of "
                f"{built['profiles_total']} profiles in the store"
            )
        config = FleetConfig(
            tenants=tenants, seed=seed, policy="paper-governor"
        )
        views = {
            report_identity_bytes(run_fleet(config, store=store))
            for store in (naive, serial, warm)
        }
    if len(views) != 1:
        _diverged("naive, serial and warm fleet reports")
    detail = (
        f"naive {naive_s:.3f}s / serial {serial_s:.3f}s / "
        f"warm {warm_s:.3f}s, {built['profiles_total']} profiles"
    )
    return [
        ("fleet cold", naive_s / serial_s, FLEET_COLD_MIN_SPEEDUP, "x",
         detail),
        ("fleet warm", serial_s / warm_s, FLEET_WARM_MIN_SPEEDUP, "x",
         detail),
    ]


FLOORS = {
    floor.__name__: floor
    for floor in (hotpath_floor, sweep_floors, batch_floor, fleet_floors)
}

#: Internal first argument: measure one floor group and print its
#: readings as JSON (how :func:`main` runs each group in a child).
_MEASURE_ONE = "--measure-one"


def _measure_in_child(name: str) -> List[Reading]:
    """The readings of ``FLOORS[name]``, measured in a fresh interpreter.

    A child that fails (a divergence, a crash) has printed why on
    stderr; the whole run stops with its exit status.
    """
    child = subprocess.run(
        [sys.executable, __file__, _MEASURE_ONE, name],
        stdout=subprocess.PIPE, text=True,
    )
    if child.returncode:
        raise SystemExit(child.returncode)
    return [tuple(reading) for reading in json.loads(child.stdout)]


def main(argv: List[str]) -> int:
    if argv[:1] == [_MEASURE_ONE]:
        json.dump(FLOORS[argv[1]](), sys.stdout)
        return 0
    failed = 0
    for floor in FLOORS:
        for name, value, line, unit, detail in _measure_in_child(floor):
            ok = value >= line
            failed += not ok
            print(
                f"{name:<24} {value:10.3f} {unit:<8} pass line "
                f"{line:.3f} {unit:<8} {'ok' if ok else 'FAIL'}  ({detail})",
                flush=True,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
