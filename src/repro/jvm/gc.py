"""Parallel stop-the-world garbage collector work generator.

The default Jikes RVM configuration the paper uses is a stop-the-world
generational Immix collector with parallel GC threads (Section IV). For
DVFS prediction what matters is the *shape* of collector work:

* GC threads synchronize through barriers (futex traffic — DEP's epochs
  cover "synchronization between garbage collection threads");
* tracing the object graph is a pointer chase: dependent LLC-miss chains
  with poor locality (non-scaling memory time, visible to CRIT);
* copying surviving objects produces store bursts that fill the store
  queue (non-scaling time invisible to CRIT — BURST's second source).

:class:`GcModel` turns "collect N live bytes, copy M bytes" into per-worker
action lists with exactly those ingredients. Cycle programs depend only on
the collection index and byte counts, so a given program run produces
identical GC work at every frequency. Each model caches the cycles it
builds, so every simulation handed the same model shares them: the
experiment runner passes one model per benchmark, and a batch group
(:mod:`repro.sim.batch`) shares one per GC config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.common.rng import rng_stream
from repro.common.validation import check_fraction, check_positive
from repro.arch.dram import DramConfig, DramModel
from repro.arch.segments import ComputeSegment, MemorySegment, StoreBurstSegment
from repro.workloads.items import Action, BarrierWait, Run


@dataclass(frozen=True)
class GcConfig:
    """Knobs of the collector work model."""

    n_gc_threads: int = 4
    #: Per-worker root-scanning work at the start of a cycle.
    root_scan_insns: int = 25_000
    #: Per-worker finalization work at the end of a cycle.
    finalize_insns: int = 6_000
    cpi: float = 0.65
    #: Tracing cost: instructions per KB of traced bytes.
    trace_insns_per_kb: int = 700
    #: LLC-miss chain clusters per KB traced (pointer-chase misses).
    trace_clusters_per_kb: float = 2.5
    #: Mean dependent-chain depth of a tracing cluster.
    trace_chain_depth: int = 2
    #: Row-locality of tracing accesses (object graphs are scattered).
    trace_locality: float = 0.2
    #: Traced bytes per surviving byte (graph walking overshoot).
    trace_expansion: float = 1.7
    #: Drain interval per copy store (partially-coalesced scattered writes).
    copy_drain_ns_per_store: float = 1.15
    #: Bytes per copy store instruction.
    store_bytes: int = 8
    #: Work chunk granularity (bytes of traced data per trace segment).
    chunk_bytes: int = 16_384
    #: Relative load imbalance across GC workers (+/- fraction), redrawn
    #: for every trace sub-phase (work stealing rebalances, but unevenly).
    imbalance: float = 0.3
    #: Barrier-separated sub-phases of the trace+copy phase. Work stealing
    #: in parallel collectors periodically rebalances the remaining graph,
    #: so which worker is critical *alternates* between sub-phases — the
    #: behaviour across-epoch critical thread prediction exists to capture.
    trace_subphases: int = 5
    #: Fraction of live data a full GC physically moves (compaction).
    full_compact_fraction: float = 0.35
    #: Barrier-id namespace base for collector rendezvous.
    barrier_base: int = 1 << 20

    def __post_init__(self) -> None:
        check_positive("n_gc_threads", self.n_gc_threads)
        check_positive("trace_insns_per_kb", self.trace_insns_per_kb)
        check_positive("chunk_bytes", self.chunk_bytes)
        check_positive("copy_drain_ns_per_store", self.copy_drain_ns_per_store)
        check_positive("trace_subphases", self.trace_subphases)
        check_fraction("trace_locality", self.trace_locality)
        check_fraction("full_compact_fraction", self.full_compact_fraction)
        check_fraction("imbalance", self.imbalance)


class GcModel:
    """Builds per-worker GC cycle programs, deterministically per cycle index."""

    def __init__(self, config: GcConfig, dram: DramConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._dram_config = dram
        self._cycle_cache: Dict[Tuple[int, int, int], List[List[Action]]] = {}

    def build_cycle(
        self, gc_index: int, traced_bytes: int, copied_bytes: int
    ) -> List[List[Action]]:
        """Action lists for each GC worker for one collection cycle.

        ``traced_bytes`` is the graph-walking volume; ``copied_bytes`` the
        object bytes physically moved. The result is cached: simulations of
        the same program at different frequencies trigger identical cycles
        and share the built programs.
        """
        check_positive("traced_bytes", traced_bytes)
        key = (gc_index, traced_bytes, copied_bytes)
        cached = self._cycle_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.config
        rng = rng_stream(self.seed, "gc-cycle", gc_index)
        dram = DramModel(self._dram_config)
        n_subphases = cfg.trace_subphases
        # Per-sub-phase work shares: work stealing rebalances between
        # sub-phases, so the critical worker alternates.
        subphase_shares = [self._worker_shares(rng) for _ in range(n_subphases)]
        root_insns = [
            max(1_000, int(cfg.root_scan_insns * (0.8 + 0.4 * rng.random())))
            for _ in range(cfg.n_gc_threads)
        ]
        def barrier(k: int) -> BarrierWait:
            return BarrierWait(
                barrier_id=cfg.barrier_base + gc_index * 64 + k,
                parties=cfg.n_gc_threads,
            )
        workers: List[List[Action]] = []
        traced_per_subphase = traced_bytes // n_subphases
        copied_per_subphase = copied_bytes // n_subphases
        for worker in range(cfg.n_gc_threads):
            actions: List[Action] = []
            # Phase 1: root scanning (jittered per worker), then rendezvous.
            actions.append(Run(ComputeSegment(insns=root_insns[worker], cpi=cfg.cpi)))
            actions.append(barrier(0))
            # Phase 2: trace + copy in work-stealing sub-phases.
            for subphase in range(n_subphases):
                share = subphase_shares[subphase][worker]
                actions.extend(
                    self._trace_copy_actions(
                        rng,
                        dram,
                        int(traced_per_subphase * share),
                        int(copied_per_subphase * share),
                    )
                )
                actions.append(barrier(1 + subphase))
            # Phase 3: per-worker finalization, final rendezvous.
            actions.append(Run(ComputeSegment(insns=cfg.finalize_insns, cpi=cfg.cpi)))
            actions.append(barrier(1 + n_subphases))
            workers.append(actions)
        self._cycle_cache[key] = workers
        return workers

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _worker_shares(self, rng: np.random.Generator) -> List[float]:
        """Normalized, imbalanced work shares for the GC workers."""
        cfg = self.config
        weights = 1.0 + cfg.imbalance * rng.uniform(-1.0, 1.0, cfg.n_gc_threads)
        weights = np.clip(weights, 0.05, None)
        total = float(weights.sum())
        return [float(weight) / total for weight in weights]

    def _trace_copy_actions(
        self,
        rng: np.random.Generator,
        dram: DramModel,
        traced_bytes: int,
        copied_bytes: int,
    ) -> List[Action]:
        """Interleaved tracing and copying work for one worker."""
        cfg = self.config
        actions: List[Action] = []
        if traced_bytes <= 0:
            return actions
        n_chunks = max(1, (traced_bytes + cfg.chunk_bytes - 1) // cfg.chunk_bytes)
        copy_per_chunk = copied_bytes // n_chunks if copied_bytes else 0
        remaining = traced_bytes
        for _ in range(n_chunks):
            chunk = min(cfg.chunk_bytes, remaining)
            remaining -= chunk
            kb = chunk / 1024.0
            insns = max(100, int(cfg.trace_insns_per_kb * kb))
            actions.append(Run(self._trace_segment(rng, dram, insns, kb)))
            if copy_per_chunk >= cfg.store_bytes:
                n_stores = copy_per_chunk // cfg.store_bytes
                actions.append(
                    Run(
                        StoreBurstSegment(
                            n_stores=int(n_stores),
                            drain_ns_per_store=cfg.copy_drain_ns_per_store,
                        )
                    )
                )
        return actions

    def _trace_segment(
        self, rng: np.random.Generator, dram: DramModel, insns: int, kb: float
    ) -> MemorySegment:
        """One tracing chunk: pointer-chase miss clusters over ``kb`` bytes."""
        cfg = self.config
        expected = cfg.trace_clusters_per_kb * kb
        n_clusters = int(rng.poisson(expected)) if expected > 0 else 0
        if n_clusters == 0:
            return MemorySegment.from_clusters(insns=insns, cpi=cfg.cpi)
        depths = np.maximum(
            rng.geometric(1.0 / cfg.trace_chain_depth, n_clusters), 1
        )
        chains = dram.sample_chain_latencies(rng, depths, cfg.trace_locality)
        leading_total = float((chains / depths).sum())
        return MemorySegment(
            insns=insns, cpi=cfg.cpi, chain_ns=chains, leading_total_ns=leading_total
        )
