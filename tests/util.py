"""Shared helpers for the test suite: tiny hand-built programs.

These programs are small enough to reason about exactly, yet exercise the
same code paths as the DaCapo models: compute/memory segments, contended
locks, barriers, managed allocation, and timed sleeps.
"""

from __future__ import annotations

import socket
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.arch.segments import (
    ComputeSegment,
    MemorySegment,
    MissCluster,
    StoreBurstSegment,
)
from repro.sim.run import simulate
from repro.workloads.items import (
    Acquire,
    Action,
    Allocate,
    BarrierWait,
    Release,
    Run,
    Sleep,
)
from repro.workloads.program import Program, ThreadProgram

MB = 1 << 20


def compute(insns: int = 100_000, cpi: float = 0.5) -> Run:
    """A pure-compute action."""
    return Run(ComputeSegment(insns=insns, cpi=cpi))


def memory(
    insns: int = 50_000,
    cpi: float = 0.5,
    chains: Sequence[float] = (80.0, 120.0, 60.0),
    depths: Optional[Sequence[int]] = None,
) -> Run:
    """A memory-phase action with explicit chain latencies."""
    if depths is None:
        depths = [1] * len(chains)
    clusters = [
        MissCluster(depth=d, chain_ns=c) for d, c in zip(depths, chains)
    ]
    return Run(MemorySegment.from_clusters(insns=insns, cpi=cpi, clusters=clusters))


def store_burst(n_stores: int = 4096, drain: float = 1.5) -> Run:
    """A store-burst action."""
    return Run(StoreBurstSegment(n_stores=n_stores, drain_ns_per_store=drain))


def make_program(
    per_thread_actions: List[List[Action]],
    name: str = "test-program",
    heap_mb: int = 64,
    nursery_mb: int = 8,
    survival_rate: float = 0.2,
    seed: int = 7,
) -> Program:
    """Wrap explicit per-thread action lists into a Program."""
    threads = tuple(
        ThreadProgram(name=f"{name}-t{i}", actions=tuple(actions))
        for i, actions in enumerate(per_thread_actions)
    )
    return Program(
        name=name,
        threads=threads,
        heap_bytes=heap_mb * MB,
        nursery_bytes=nursery_mb * MB,
        survival_rate=survival_rate,
        seed=seed,
    )


def lock_pair_program(work_insns: int = 200_000) -> Program:
    """Figure 2's scenario: two threads contending on one critical section.

    Thread 0 takes the lock first (it starts with less preamble work), so
    thread 1 sleeps on the futex and is woken when thread 0 releases.
    """
    t0 = [
        compute(work_insns // 4),
        Acquire(lock_id=1),
        compute(work_insns),
        Release(lock_id=1),
        compute(work_insns // 2),
    ]
    t1 = [
        compute(work_insns // 2),
        Acquire(lock_id=1),
        compute(work_insns // 2),
        Release(lock_id=1),
        compute(work_insns),
    ]
    return make_program([t0, t1], name="lock-pair")


def barrier_program(n_threads: int = 4, rounds: int = 3) -> Program:
    """Threads of uneven size meeting at barriers each round."""
    per_thread: List[List[Action]] = []
    for t in range(n_threads):
        actions: List[Action] = []
        for round_idx in range(rounds):
            actions.append(compute(80_000 + 40_000 * t))
            actions.append(BarrierWait(barrier_id=round_idx, parties=n_threads))
        per_thread.append(actions)
    return make_program(per_thread, name="barrier-prog")


def allocating_program(
    n_threads: int = 2,
    allocations: int = 12,
    alloc_bytes: int = 1 * MB,
    nursery_mb: int = 4,
) -> Program:
    """Enough allocation to force several nursery collections."""
    per_thread = []
    for _ in range(n_threads):
        actions: List[Action] = []
        for _ in range(allocations):
            actions.append(compute(60_000))
            actions.append(Allocate(n_bytes=alloc_bytes))
        per_thread.append(actions)
    return make_program(
        per_thread, name="alloc-prog", heap_mb=64, nursery_mb=nursery_mb
    )


def sleeping_program(duration_ns: float = 2.0e6) -> Program:
    """A single thread that computes, sleeps, computes."""
    actions = [compute(50_000), Sleep(duration_ns=duration_ns), compute(50_000)]
    return make_program([actions], name="sleeper")


def random_chains(rng: np.random.Generator, n: int) -> List[float]:
    """Random plausible chain latencies."""
    return list(40.0 + 160.0 * rng.random(n))


def check_cross_frequency(
    program: Program, freqs_ghz: Sequence[float] = (1.0, 4.0), **simulate_kwargs
) -> List[str]:
    """Conservation checks across re-simulations of one program.

    Verifies that the logical work is frequency-invariant (instructions,
    collections) and that speedups stay inside the physically possible
    band ``[1, f_hi / f_lo]``. Returns human-readable violations.
    """
    eps = 1e-6
    violations: List[str] = []
    results = {f: simulate(program, f, **simulate_kwargs) for f in freqs_ghz}
    insns = {
        f: sum(c.insns for c in r.trace.final_counters().values())
        for f, r in results.items()
    }
    if max(insns.values()) - min(insns.values()) > 0.001 * max(insns.values()):
        violations.append(f"instruction counts vary with frequency: {insns}")
    gcs = {f: r.trace.gc_cycles for f, r in results.items()}
    if len(set(gcs.values())) != 1:
        violations.append(f"GC counts vary with frequency: {gcs}")
    ordered = sorted(freqs_ghz)
    for lo, hi in zip(ordered, ordered[1:]):
        speedup = results[lo].total_ns / results[hi].total_ns
        if not 1.0 - eps <= speedup <= hi / lo + eps:
            violations.append(
                f"speedup {speedup:.3f} from {lo} to {hi} GHz outside "
                f"[1, {hi / lo:.2f}]"
            )
    return violations


# ----------------------------------------------------------------------
# Platform guards
# ----------------------------------------------------------------------

#: Skip (not error) marker for tests that bind unix-domain sockets.
requires_af_unix = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="platform has no AF_UNIX sockets",
)
