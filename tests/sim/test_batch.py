"""Unit tests of the batched-simulation API (`repro.sim.batch`)."""

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.jvm.gc import GcConfig, GcModel
from repro.jvm.runtime import JvmConfig
from repro.sim.batch import (
    LANE_PARKED,
    BatchInstance,
    SharedTimingStore,
    _build_lanes,
    run_batch,
    simulate_batch,
)
from repro.sim.run import simulate
from repro.sim.trace import EventKind
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)
from tests.util import allocating_program


def _program(seed=3, n_units=10, **overrides):
    config = SyntheticWorkloadConfig(
        name=f"batch-unit-{seed}",
        seed=seed,
        n_threads=2,
        n_units=n_units,
        unit_insns=30_000,
        clusters_per_kinsn=1.0,
        alloc_bytes_per_unit=0,
        cs_probability=0.0,
        nursery_mb=2,
        heap_mb=32,
        **overrides,
    )
    return build_synthetic_program(config)


# ----------------------------------------------------------------------
# Instance validation
# ----------------------------------------------------------------------


def test_instance_requires_frequency_or_governor():
    with pytest.raises(ConfigError, match="freq_ghz"):
        BatchInstance(program=_program())


def test_instance_rejects_unknown_engine():
    with pytest.raises(ConfigError, match="unknown engine"):
        BatchInstance(program=_program(), freq_ghz=2.0, engine="warp")


def test_mixed_engine_batch_rejected():
    program = _program()
    instances = [
        BatchInstance(program=program, freq_ghz=2.0, engine="fast"),
        BatchInstance(program=program, freq_ghz=2.0, engine="classic"),
    ]
    with pytest.raises(ConfigError, match="single engine"):
        run_batch(instances)


def test_empty_batch_is_empty_report():
    report = run_batch([])
    assert report.results == []
    assert report.lane_states == []
    assert report.groups == 0


# ----------------------------------------------------------------------
# Grouping and lane bookkeeping
# ----------------------------------------------------------------------


def test_lanes_park_in_input_order():
    program = _program()
    spec = haswell_i7_4770k()
    instances = [
        BatchInstance(program=program, freq_ghz=freq, spec=spec)
        for freq in (1.0, 2.0, 4.0)
    ]
    report = run_batch(instances)
    assert report.lane_states == [LANE_PARKED] * 3
    assert len(report.results) == 3
    # Lanes come back in input order: higher frequency finishes sooner.
    totals = [result.total_ns for result in report.results]
    assert totals[0] > totals[1] > totals[2]


def test_same_program_and_spec_share_one_group():
    program = _program()
    spec = haswell_i7_4770k()
    report = run_batch(
        [
            BatchInstance(program=program, freq_ghz=1.0, spec=spec),
            BatchInstance(program=program, freq_ghz=2.0, spec=spec),
            BatchInstance(program=program, freq_ghz=2.0, spec=spec),
        ]
    )
    assert report.groups == 1
    # Duplicate frequencies are deduplicated by the prewarm.
    assert report.prewarmed_freqs == 2


def test_distinct_spec_objects_do_not_share():
    program = _program()
    report = run_batch(
        [
            BatchInstance(program=program, freq_ghz=2.0, spec=haswell_i7_4770k()),
            BatchInstance(program=program, freq_ghz=2.0, spec=haswell_i7_4770k()),
        ]
    )
    assert report.groups == 2


def test_distinct_programs_do_not_share():
    spec = haswell_i7_4770k()
    report = run_batch(
        [
            BatchInstance(program=_program(seed=3), freq_ghz=2.0, spec=spec),
            BatchInstance(program=_program(seed=4), freq_ghz=2.0, spec=spec),
        ]
    )
    assert report.groups == 2


def test_classic_batch_runs_without_stores():
    program = _program()
    spec = haswell_i7_4770k()
    report = run_batch(
        [
            BatchInstance(
                program=program, freq_ghz=2.0, spec=spec, engine="classic"
            )
        ]
    )
    assert report.groups == 0  # classic lanes never share
    solo = simulate(program, 2.0, spec=spec, engine="classic")
    assert report.results[0].total_ns == solo.total_ns


def test_max_ns_watchdog_applies_per_lane():
    from repro.common.errors import SimulationError

    program = _program(n_units=20)
    spec = haswell_i7_4770k()
    full = simulate(program, 2.0, spec=spec)
    # max_ns is the same watchdog simulate() has: a lane that exceeds it
    # raises rather than parking silently short.
    with pytest.raises(SimulationError, match="max_ns"):
        run_batch(
            [
                BatchInstance(
                    program=program, freq_ghz=2.0, spec=spec,
                    max_ns=full.total_ns / 3,
                )
            ]
        )
    # A generous bound never triggers.
    report = run_batch(
        [
            BatchInstance(
                program=program, freq_ghz=2.0, spec=spec,
                max_ns=full.total_ns * 2,
            )
        ]
    )
    assert report.results[0].total_ns == full.total_ns


def test_simulate_batch_returns_results_in_order():
    program = _program()
    spec = haswell_i7_4770k()
    results = simulate_batch(
        [
            BatchInstance(program=program, freq_ghz=freq, spec=spec)
            for freq in (4.0, 1.0)
        ]
    )
    assert [r.trace.base_freq_ghz for r in results] == [4.0, 1.0]


# ----------------------------------------------------------------------
# SharedTimingStore
# ----------------------------------------------------------------------


def test_store_prewarm_dedupes_and_skips_cached():
    from repro.arch.core import CoreModel
    from repro.arch.segments import ComputeSegment

    core = CoreModel(haswell_i7_4770k())
    segments = [ComputeSegment(insns=1000, cpi=0.5)]
    store = SharedTimingStore()
    store.prewarm(core, segments, [2.0, 2.0, 3.0])
    assert sorted(store.caches) == [2.0, 3.0]
    assert store.prewarmed == [2.0, 3.0]
    before = {freq: dict(cache) for freq, cache in store.caches.items()}
    store.prewarm(core, segments, [2.0, 3.0])  # all cached: no-op
    assert store.prewarmed == [2.0, 3.0]
    assert {f: dict(c) for f, c in store.caches.items()} == before


def test_store_prewarm_matches_solo_timing():
    from repro.arch.core import CoreModel
    from repro.arch.segments import ComputeSegment, MemorySegment, MissCluster

    core = CoreModel(haswell_i7_4770k())
    segments = [
        ComputeSegment(insns=5_000, cpi=0.5),
        MemorySegment.from_clusters(
            insns=8_000,
            cpi=0.7,
            clusters=[
                MissCluster(depth=3, chain_ns=240.0),
                MissCluster(depth=1, chain_ns=80.0),
            ],
        ),
    ]
    store = SharedTimingStore()
    store.prewarm(core, segments, [1.5, 3.0])
    for freq in (1.5, 3.0):
        for segment in segments:
            cached_segment, wall, counters = store.caches[freq][id(segment)]
            assert cached_segment is segment
            solo = core.time_segment(segment, freq)
            assert wall == solo.wall_ns
            assert counters == solo.counters


def test_store_prewarm_empty_segments():
    from repro.arch.core import CoreModel

    store = SharedTimingStore()
    store.prewarm(CoreModel(haswell_i7_4770k()), [], [2.0])
    assert store.caches == {2.0: {}}


def test_governor_lane_warms_new_frequencies_into_shared_store():
    from repro.energy.manager import EnergyManager

    program = _program(n_units=16)
    spec = haswell_i7_4770k()
    manager = EnergyManager(spec)
    instances = [
        BatchInstance(
            program=program, governor=manager, spec=spec, quantum_ns=2.0e5
        ),
        BatchInstance(program=program, freq_ghz=4.0, spec=spec),
    ]
    report = run_batch(instances)
    # The governor started at max (4.0), so one prewarmed frequency; any
    # set point it visited later was warmed on demand by the lane itself.
    assert report.prewarmed_freqs == 1
    assert report.lane_states == [LANE_PARKED] * 2


# ----------------------------------------------------------------------
# One GC model per group
# ----------------------------------------------------------------------


def _gc_models(instances):
    lanes, _ = _build_lanes(instances)
    return [lane.system.runtime.gc_model for lane in lanes]


def test_group_lanes_share_one_gc_model():
    program = allocating_program()
    spec = haswell_i7_4770k()
    models = _gc_models(
        [
            BatchInstance(program=program, freq_ghz=1.0, spec=spec),
            BatchInstance(
                program=program, freq_ghz=2.0, spec=spec,
                jvm_config=JvmConfig(),
            ),
            BatchInstance(program=program, freq_ghz=4.0, spec=spec),
        ]
    )
    assert models[0] is models[1] is models[2]
    assert models[0].seed == program.seed
    assert models[0].config == GcConfig()


def test_gc_models_are_keyed_by_gc_config_value():
    program = allocating_program()
    spec = haswell_i7_4770k()
    other = JvmConfig(gc=GcConfig(n_gc_threads=2))
    models = _gc_models(
        [
            BatchInstance(program=program, freq_ghz=1.0, spec=spec),
            BatchInstance(
                program=program, freq_ghz=2.0, spec=spec, jvm_config=other
            ),
            BatchInstance(program=program, freq_ghz=4.0, spec=spec),
        ]
    )
    assert models[0] is models[2]
    assert models[1] is not models[0]
    assert models[1].config == other.gc


def test_explicit_gc_model_is_kept():
    program = allocating_program()
    spec = haswell_i7_4770k()
    mine = GcModel(GcConfig(), spec.dram, program.seed)
    models = _gc_models(
        [
            BatchInstance(
                program=program, freq_ghz=1.0, spec=spec, gc_model=mine
            ),
            BatchInstance(program=program, freq_ghz=2.0, spec=spec),
        ]
    )
    assert models[0] is mine
    assert models[1] is not mine


def test_classic_lanes_keep_private_gc_models():
    program = allocating_program()
    spec = haswell_i7_4770k()
    models = _gc_models(
        [
            BatchInstance(
                program=program, freq_ghz=freq, spec=spec, engine="classic"
            )
            for freq in (1.0, 2.0)
        ]
    )
    assert models[0] is not models[1]


def test_group_builds_each_gc_cycle_once(monkeypatch):
    calls = []
    build_cycle = GcModel.build_cycle

    def counting(self, gc_index, traced_bytes, copied_bytes):
        key = (gc_index, traced_bytes, copied_bytes)
        calls.append((id(self), key, key not in self._cycle_cache))
        return build_cycle(self, gc_index, traced_bytes, copied_bytes)

    monkeypatch.setattr(GcModel, "build_cycle", counting)
    program = allocating_program()
    spec = haswell_i7_4770k()
    report = run_batch(
        [
            BatchInstance(program=program, freq_ghz=freq, spec=spec)
            for freq in (1.0, 2.0, 4.0)
        ]
    )
    for result in report.results:
        assert any(
            event.kind is EventKind.GC_START for event in result.trace.events
        )
    assert len({model for model, _, _ in calls}) == 1
    built = [key for _, key, miss in calls if miss]
    assert sorted(built) == sorted({key for _, key, _ in calls})
    # Every lane collected; only the first to reach a cycle built it.
    assert len(calls) >= 3 * len(built)


# ----------------------------------------------------------------------
# GC cycle timings never outlive their cycle
# ----------------------------------------------------------------------


def _governed_gc_batch(monkeypatch):
    """Two governor lanes over one allocating program; returns the
    report and the group's timing stores."""
    from repro.energy.manager import EnergyManager
    import repro.sim.batch as batch

    stores = []

    class RecordingStore(SharedTimingStore):
        def __init__(self):
            super().__init__()
            stores.append(self)

    monkeypatch.setattr(batch, "SharedTimingStore", RecordingStore)
    program = allocating_program(allocations=24)
    spec = haswell_i7_4770k()
    report = run_batch(
        [
            BatchInstance(
                program=program,
                governor=EnergyManager(spec),
                spec=spec,
                quantum_ns=quantum,
            )
            for quantum in (2.0e5, 1.0e5)
        ]
    )
    return report, stores


def _cycle_entries(store):
    """Cache entries whose segment belongs to a built GC cycle."""
    from repro.workloads.items import Run

    cycle_ids = {
        id(action.segment)
        for model in store.gc_models.values()
        for workers in model._cycle_cache.values()
        for actions in workers
        for action in actions
        if isinstance(action, Run)
    }
    return sum(
        1 for cache in store.caches.values() for sid in cache if sid in cycle_ids
    )


def test_gc_cycle_timings_are_evicted_at_every_frequency(monkeypatch):
    report, stores = _governed_gc_batch(monkeypatch)
    (store,) = stores
    assert store.gc_models, "the lanes collected no garbage"
    # The governors visited several set points, some of them mid-cycle.
    assert len(store.caches) > 1
    assert _cycle_entries(store) == 0
    # Eviction only drops memoized timings: each lane's trace is the one
    # it produces on its own.
    from repro.sim.run import simulate_managed
    from repro.energy.manager import EnergyManager
    from repro.sim.serialize import encode_trace

    spec = haswell_i7_4770k()
    for quantum, result in zip((2.0e5, 1.0e5), report.results):
        solo = simulate_managed(
            allocating_program(allocations=24),
            EnergyManager(spec),
            spec=spec,
            quantum_ns=quantum,
        )
        assert encode_trace(result.trace) == encode_trace(solo.trace)
