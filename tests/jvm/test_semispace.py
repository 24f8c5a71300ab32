"""Semi-space collector variant."""

import pytest

from repro.common.errors import SimulationError
from repro.arch.dram import DramConfig
from repro.jvm.heap import HeapState
from repro.jvm.runtime import JvmConfig, JvmRuntime
from repro.sim.run import simulate
from tests.util import MB, allocating_program, make_program, compute
from repro.workloads.items import Allocate


def semispace_config():
    return JvmConfig(collector="semispace")


def test_invalid_collector_rejected():
    with pytest.raises(SimulationError):
        JvmConfig(collector="azul-c4")


def test_heap_commit_semispace():
    heap = HeapState(heap_bytes=64 * MB, nursery_bytes=8 * MB)
    heap.allocate(6 * MB)
    heap.commit_semispace(2 * MB)
    assert heap.nursery_used == 2 * MB
    assert heap.mature_used == 0
    assert heap.full_gcs == 1
    with pytest.raises(SimulationError):
        heap.commit_semispace(9 * MB)


def test_semispace_plan_copies_all_live():
    program = allocating_program()
    runtime = JvmRuntime(program, DramConfig(), semispace_config())
    runtime.try_allocate(3 * MB)
    plan = runtime.plan_gc()
    assert plan.kind == "semispace"
    assert plan.copied_bytes == max(1, plan.commit_value)
    runtime.finish_gc(plan)
    assert runtime.heap.nursery_used == plan.commit_value


def test_semispace_simulation_runs_and_copies_more():
    program = allocating_program(allocations=10, alloc_bytes=1 * MB,
                                 nursery_mb=4)
    generational = simulate(program, 1.0)
    semispace = simulate(program, 1.0, jvm_config=semispace_config())
    assert semispace.trace.gc_cycles >= 1
    # Full-heap copying: the collector's store traffic is much larger.
    def gc_stores(result):
        return sum(
            c.stores
            for tid, c in result.trace.final_counters().items()
            if tid not in result.trace.app_tids()
        )

    assert gc_stores(semispace) > gc_stores(generational)


def test_semispace_survivors_reduce_headroom():
    # High survival: the space stays mostly full, so collections come
    # more frequently than under the generational heap.
    program = allocating_program(allocations=12, alloc_bytes=1 * MB,
                                 nursery_mb=4)
    import dataclasses

    sticky = dataclasses.replace(program, survival_rate=0.5)
    generational = simulate(sticky, 1.0)
    semispace = simulate(sticky, 1.0, jvm_config=semispace_config())
    assert semispace.trace.gc_cycles >= generational.trace.gc_cycles


def test_unsatisfiable_allocation_fails_loudly():
    # survival 1.0: nothing is ever reclaimed; the retry guard must fire
    # rather than collecting forever.
    program = make_program(
        [[compute(), Allocate(3 * MB), Allocate(3 * MB), Allocate(3 * MB)]],
        nursery_mb=4, survival_rate=1.0,
    )
    with pytest.raises(SimulationError, match="cannot be satisfied"):
        simulate(program, 1.0, jvm_config=semispace_config())
