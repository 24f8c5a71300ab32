"""Synthetic workload generator."""

import dataclasses

import pytest

from repro.workloads.items import Acquire, Allocate, BarrierWait, Release, Run
from repro.workloads.synthetic import SyntheticWorkloadConfig, build_synthetic_program
from repro.arch.segments import ComputeSegment, MemorySegment, StoreBurstSegment


def tiny_config(**overrides):
    base = dict(
        name="tiny", seed=3, n_threads=2, n_units=40, unit_insns=10_000,
        alloc_bytes_per_unit=4096, alloc_every=4, cs_probability=0.3,
    )
    base.update(overrides)
    return SyntheticWorkloadConfig(**base)


def fingerprint(program):
    """Structural fingerprint (MemorySegment arrays are not eq-comparable)."""
    parts = []
    for thread in program.threads:
        total_chain = 0.0
        insns = 0
        for action in thread.actions:
            if not isinstance(action, Run):
                continue
            segment = action.segment
            if isinstance(segment, MemorySegment):
                total_chain += segment.total_chain_ns
            if isinstance(segment, (ComputeSegment, MemorySegment)):
                insns += segment.insns
            elif isinstance(segment, StoreBurstSegment):
                insns += segment.n_stores
        parts.append(
            (len(thread.actions), insns,
             thread.total_allocated_bytes(), round(total_chain, 6))
        )
    return tuple(parts)


def test_generation_is_deterministic():
    a = build_synthetic_program(tiny_config())
    b = build_synthetic_program(tiny_config())
    assert fingerprint(a) == fingerprint(b)


def test_different_seed_changes_program():
    a = build_synthetic_program(tiny_config(seed=3))
    b = build_synthetic_program(tiny_config(seed=4))
    assert fingerprint(a) != fingerprint(b)


def test_thread_count_and_names():
    program = build_synthetic_program(tiny_config(n_threads=3))
    assert program.n_threads == 3
    assert program.threads[2].name == "tiny-worker-2"


def test_locks_are_balanced():
    program = build_synthetic_program(tiny_config())
    for thread in program.threads:
        acquires = sum(isinstance(a, Acquire) for a in thread.actions)
        releases = sum(isinstance(a, Release) for a in thread.actions)
        assert acquires == releases


def test_barriers_identical_across_threads():
    program = build_synthetic_program(
        tiny_config(barrier_period=8, cs_probability=0.0)
    )
    schedules = [
        [a.barrier_id for a in t.actions if isinstance(a, BarrierWait)]
        for t in program.threads
    ]
    assert schedules[0] == schedules[1]
    assert len(schedules[0]) == 4  # units 8, 16, 24, 32


def test_serialized_fraction_uses_global_lock():
    program = build_synthetic_program(
        tiny_config(serialized_fraction=0.5, cs_probability=0.0)
    )
    thread = program.threads[0]
    assert any(isinstance(a, Acquire) and a.lock_id == 0 for a in thread.actions)


def test_allocation_volume_tracks_config():
    config = tiny_config()
    program = build_synthetic_program(config)
    expected = config.alloc_bytes_per_unit * config.n_units
    actual = program.threads[0].total_allocated_bytes()
    assert actual == pytest.approx(expected, rel=0.5)


def test_memory_skew_orders_threads():
    config = tiny_config(n_threads=2, memory_skew=0.8, cs_probability=0.0,
                         clusters_per_kinsn=3.0, n_units=120)
    program = build_synthetic_program(config)

    def clusters(thread):
        return sum(
            a.segment.n_clusters
            for a in thread.actions
            if isinstance(a, Run) and isinstance(a.segment, MemorySegment)
        )

    assert clusters(program.threads[1]) > clusters(program.threads[0])


def test_phase_modulation_creates_bursty_memory():
    flat = build_synthetic_program(
        tiny_config(n_units=200, phase_amplitude=0.0, cs_probability=0.0,
                    clusters_per_kinsn=2.0)
    )
    phased = build_synthetic_program(
        tiny_config(n_units=200, phase_amplitude=0.8, phase_periods=4.0,
                    cs_probability=0.0, clusters_per_kinsn=2.0)
    )

    def per_unit_clusters(program):
        return [
            a.segment.n_clusters
            for a in program.threads[0].actions
            if isinstance(a, Run) and isinstance(a.segment, MemorySegment)
        ]

    import numpy as np
    assert np.std(per_unit_clusters(phased)) > np.std(per_unit_clusters(flat))


def test_scaled_shrinks_units_only():
    config = tiny_config(n_units=100)
    scaled = config.scaled(0.25)
    assert scaled.n_units == 25
    assert scaled.unit_insns == config.unit_insns
    with pytest.raises(Exception):
        config.scaled(0.0)


def test_scaled_floors_units_at_eight():
    config = tiny_config(n_units=100)
    assert config.scaled(0.02).n_units < config.n_units
    assert config.scaled(1e-9).n_units == 8  # floor, never empty


def test_validation_errors():
    with pytest.raises(Exception):
        tiny_config(cs_probability=1.5)
    with pytest.raises(Exception):
        tiny_config(n_units=0)
    with pytest.raises(Exception):
        tiny_config(memory_skew=-0.1)
