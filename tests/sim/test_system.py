"""Full-system scenario tests."""

import pytest

from repro.common.errors import SimulationError
from repro.jvm.jit import JitConfig
from repro.jvm.runtime import JvmConfig
from repro.sim.run import simulate
from repro.sim.system import System
from repro.sim.trace import EventKind
from tests.util import (
    allocating_program,
    barrier_program,
    compute,
    lock_pair_program,
    make_program,
    sleeping_program,
)


def events_of(trace, kind):
    return [e for e in trace.events if e.kind is kind]


class TestBasics:
    def test_single_thread_compute_timing_is_exact(self):
        program = make_program([[compute(1_000_000, cpi=0.5)]])
        r1 = simulate(program, 1.0)
        r2 = simulate(program, 2.0)
        assert r1.total_ns == pytest.approx(500_000.0)
        assert r2.total_ns == pytest.approx(250_000.0)

    def test_threads_run_in_parallel(self):
        one = make_program([[compute(1_000_000)]])
        four = make_program([[compute(1_000_000)] for _ in range(4)])
        t_one = simulate(one, 1.0).total_ns
        t_four = simulate(four, 1.0).total_ns
        assert t_four == pytest.approx(t_one, rel=1e-6)

    def test_system_is_single_use(self):
        program = make_program([[compute()]])
        system = System(program)
        system.run()
        with pytest.raises(SimulationError):
            system.run()

    def test_spawn_and_exit_events_recorded(self):
        program = make_program([[compute()], [compute()]])
        trace = simulate(program, 1.0).trace
        spawns = events_of(trace, EventKind.SPAWN)
        # 2 app threads + 4 GC workers.
        assert len(spawns) == 6
        app_exits = [
            e for e in events_of(trace, EventKind.EXIT)
            if e.tid in trace.app_tids() and e.detail != "teardown"
        ]
        assert len(app_exits) == 2

    def test_trace_validates(self):
        trace = simulate(lock_pair_program(), 1.0).trace
        trace.validate()

    def test_max_ns_guard(self):
        program = make_program([[compute(10_000_000, cpi=1.0)]])
        with pytest.raises(SimulationError):
            simulate(program, 1.0, max_ns=1000.0)


class TestLocks:
    def test_contended_lock_produces_futex_events(self):
        trace = simulate(lock_pair_program(), 1.0).trace
        waits = [e for e in events_of(trace, EventKind.FUTEX_WAIT)
                 if e.detail == "lock"]
        wakes = [e for e in events_of(trace, EventKind.FUTEX_WAKE)
                 if e.detail.startswith("lock-handoff")]
        assert len(waits) == 1
        assert len(wakes) == 1

    def test_critical_section_serializes(self):
        # Both threads run a 1M-insn critical section under the same lock:
        # total time must be at least the two sections back to back.
        from repro.workloads.items import Acquire, Release

        section = [Acquire(1), compute(1_000_000, cpi=0.5), Release(1)]
        program = make_program([list(section), list(section)])
        result = simulate(program, 1.0)
        assert result.total_ns >= 2 * 500_000.0 - 1.0

    def test_uncontended_lock_has_no_futex_traffic(self):
        from repro.workloads.items import Acquire, Release

        program = make_program(
            [[Acquire(1), compute(), Release(1)],
             [Acquire(2), compute(), Release(2)]]
        )
        trace = simulate(program, 1.0).trace
        waits = [e for e in events_of(trace, EventKind.FUTEX_WAIT)
                 if e.detail == "lock"]
        assert not waits


class TestBarriers:
    def test_barrier_equalizes_progress(self):
        program = barrier_program(n_threads=3, rounds=2)
        trace = simulate(program, 1.0).trace
        waits = [e for e in events_of(trace, EventKind.FUTEX_WAIT)
                 if e.detail == "barrier"]
        releases = [e for e in events_of(trace, EventKind.FUTEX_WAKE)
                    if e.detail.startswith("barrier-release")]
        # Each of 2 rounds: 2 sleepers + 2 releases.
        assert len(waits) == 4
        assert len(releases) == 4

    def test_barrier_time_set_by_slowest_thread(self):
        program = barrier_program(n_threads=4, rounds=1)
        result = simulate(program, 1.0)
        # Slowest thread: 80k + 40k*3 insns at default cpi 0.5.
        slowest_ns = (80_000 + 120_000) * 0.5
        # Plus its trailing nothing — barrier is the last action.
        assert result.total_ns == pytest.approx(slowest_ns, rel=1e-6)


class TestGarbageCollection:
    def test_allocation_triggers_stop_the_world(self):
        program = allocating_program(n_threads=2, allocations=10,
                                     alloc_bytes=1 << 20, nursery_mb=4)
        result = simulate(program, 1.0)
        trace = result.trace
        assert trace.gc_cycles >= 4
        starts = events_of(trace, EventKind.GC_START)
        ends = events_of(trace, EventKind.GC_END)
        assert len(starts) == len(ends) == trace.gc_cycles
        assert result.gc_time_ms > 0

    def test_no_app_thread_runs_during_gc(self):
        program = allocating_program()
        trace = simulate(program, 1.0).trace
        app = set(trace.app_tids())
        in_gc = False
        for event in trace.events:
            if event.kind is EventKind.GC_START:
                in_gc = True
            elif event.kind is EventKind.GC_END:
                in_gc = False
            elif in_gc:
                assert not (set(event.running_after) & app), (
                    f"app thread running during GC at {event.time_ns}"
                )

    def test_gc_count_independent_of_frequency(self):
        program = allocating_program()
        gcs = {f: simulate(program, f).trace.gc_cycles for f in (1.0, 4.0)}
        assert gcs[1.0] == gcs[4.0]

    def test_gc_workers_spawned_per_config(self):
        program = allocating_program()
        trace = simulate(program, 1.0).trace
        assert len(trace.threads) - len(trace.app_tids()) == 4


class TestScheduling:
    def test_oversubscription_preempts(self):
        # 6 equal threads on 4 cores. Preemption happens at segment
        # boundaries, so the work is split into many small segments.
        program = make_program(
            [[compute(100_000, cpi=0.5) for _ in range(30)] for _ in range(6)]
        )
        trace = simulate(program, 1.0).trace
        preempts = events_of(trace, EventKind.PREEMPT)
        dispatches = events_of(trace, EventKind.DISPATCH)
        assert preempts, "timeslicing should preempt"
        assert dispatches
        # Total work conserved: 6 threads x 1.5 ms of work on 4 cores takes
        # at least 2.25 ms; round-robin end-game imbalance (1 ms timeslice)
        # may leave cores idle at the tail but must beat serial batches.
        ideal = 6 * 1_500_000 / 4
        assert ideal - 1.0 <= trace.total_ns <= 2 * 1_500_000

    def test_sleep_wakes_by_timer(self):
        program = sleeping_program(duration_ns=1.0e6)
        result = simulate(program, 1.0)
        waits = [e for e in events_of(result.trace, EventKind.FUTEX_WAIT)
                 if e.detail == "sleep"]
        wakes = [e for e in events_of(result.trace, EventKind.FUTEX_WAKE)
                 if e.detail.startswith("timer")]
        assert len(waits) == 1 and len(wakes) == 1
        assert result.total_ns >= 1.0e6

    def test_sleep_duration_does_not_scale_with_frequency(self):
        program = sleeping_program(duration_ns=2.0e6)
        t1 = simulate(program, 1.0).total_ns
        t4 = simulate(program, 4.0).total_ns
        # Compute shrinks, the 2 ms sleep does not.
        assert t1 - t4 < 1.0e6
        assert t4 > 2.0e6


class TestJit:
    def test_jit_thread_runs_when_enabled(self):
        config = JvmConfig(jit=JitConfig(enabled=True, n_compilations=2,
                                         interval_ns=1e5,
                                         insns_per_compilation=50_000))
        program = make_program([[compute(2_000_000)]])
        trace = simulate(program, 1.0, jvm_config=config).trace
        names = [info.name for info in trace.threads.values()]
        assert "jit-compiler" in names


class TestIntervals:
    def test_intervals_tile_the_run(self):
        program = make_program([[compute(20_000_000, cpi=0.5)]])
        trace = simulate(program, 1.0, quantum_ns=1.0e6).trace
        assert len(trace.intervals) >= 9
        assert trace.intervals[0].start_ns == 0.0
        for a, b in zip(trace.intervals, trace.intervals[1:]):
            assert b.start_ns == pytest.approx(a.end_ns)
        assert trace.intervals[-1].end_ns == pytest.approx(trace.total_ns)

    def test_interval_busy_time_bounded_by_cores(self):
        program = allocating_program()
        trace = simulate(program, 1.0, quantum_ns=1.0e6).trace
        for record in trace.intervals:
            assert record.busy_core_ns <= 4 * record.duration_ns * 1.001
