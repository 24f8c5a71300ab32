"""Out-of-order core timing model (segment level).

This is the heart of the substrate: it converts a frequency-independent
:class:`~repro.arch.segments.Segment` into wall-clock time at a given
frequency, and produces the performance-counter increments a real core would
expose. The model captures the three DVFS-relevant mechanisms:

**Compute scales.** ``insns * cpi / f`` nanoseconds.

**Memory does not — but overlap does.** An LLC-miss cluster's dependent
chain takes ``chain_ns`` regardless of frequency. The out-of-order window
executes independent instructions underneath the chain; the amount of work
it can hide is bounded by the ROB (``rob_hide_insns`` instructions, i.e.
``rob_hide_insns * cpi / f`` nanoseconds — *this* part scales). Hence a
cluster's contribution to wall time is ``max(0, chain_ns - hide_ns(f))``
and the hidden instructions are not charged again to compute time. When the
chain is longer than the window at every frequency of interest, CRIT's
decomposition (scaling = wall - chain, non-scaling = chain) is exact; for
borderline clusters it drifts — reproducing CRIT's small residual error on
sequential code.

**Store bursts throttle to the drain rate.** Delegated to the store-queue
fluid model; the SQ-full time is real wall time that CRIT does not observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.common.errors import SimulationError
from repro.arch.counters import CounterSet
from repro.arch.segments import (
    ComputeSegment,
    MemorySegment,
    Segment,
    SegmentBatch,
    StoreBurstSegment,
)
from repro.arch.specs import MachineSpec
from repro.arch.storequeue import StoreQueueModel


@dataclass(frozen=True)
class SegmentTiming:
    """Result of executing one segment at one frequency."""

    #: Wall-clock duration of the segment, ns.
    wall_ns: float
    #: Counter increments a real core would have recorded.
    counters: CounterSet

    def __post_init__(self) -> None:
        if self.wall_ns < 0:
            raise SimulationError(f"negative segment wall time {self.wall_ns}")


@dataclass(frozen=True)
class BatchTiming:
    """Result of executing a :class:`SegmentBatch` at one frequency.

    ``walls`` and ``counters`` are positional: entry ``i`` times segment
    ``i`` of the batch and is bit-identical to what
    :meth:`CoreModel.time_segment` would have produced for it.
    """

    walls: List[float]
    counters: List[CounterSet]


class CoreModel:
    """Timing model of one out-of-order core at an adjustable frequency."""

    #: Cluster elements per chunk of the batched memory pass. Chunks are
    #: cut at segment boundaries near this size so the ``(n_freqs x
    #: chunk)`` working buffers stay cache-resident while a chunk's
    #: cluster latencies are reused across every frequency.
    _MULTI_CHUNK = 32_768

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self._sq_model = StoreQueueModel(
            spec.store_queue, spec.core.store_issue_per_cycle
        )
        self._rob_hide_insns = int(spec.core.rob_entries * spec.core.rob_hide_fraction)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def time_segment(self, segment: Segment, freq_ghz: float) -> SegmentTiming:
        """Execute ``segment`` at ``freq_ghz``; return timing + counters."""
        if isinstance(segment, ComputeSegment):
            return self.time_compute(segment, freq_ghz)
        if isinstance(segment, MemorySegment):
            return self.time_memory(segment, freq_ghz)
        if isinstance(segment, StoreBurstSegment):
            return self.time_store_burst(segment, freq_ghz)
        raise SimulationError(f"unknown segment type: {segment!r}")

    # ------------------------------------------------------------------
    # Segment kinds
    # ------------------------------------------------------------------

    def time_compute(self, segment: ComputeSegment, freq_ghz: float) -> SegmentTiming:
        """Pure pipeline work: wall time is cycles divided by frequency."""
        wall_ns = segment.insns * segment.cpi / freq_ghz
        counters = CounterSet(active_ns=wall_ns, insns=segment.insns)
        return SegmentTiming(wall_ns=wall_ns, counters=counters)

    def queue_factor(self, freq_ghz: float) -> float:
        """Served-latency inflation at ``freq_ghz``.

        Faster cores put more pressure on the memory controller: the
        *served* chain latency grows mildly with frequency, while CRIT's
        counter naturally records the latency at the measured frequency.
        Shared by the scalar and batch entry points so both inflate
        chains with the identical expression.
        """
        return 1.0 + self.spec.dram.queue_freq_sensitivity_per_ghz * (
            freq_ghz - 1.0
        )

    def time_memory(self, segment: MemorySegment, freq_ghz: float) -> SegmentTiming:
        """Compute punctuated by LLC-miss clusters with ROB-bounded overlap."""
        compute_ns = segment.insns * segment.cpi / freq_ghz
        queue_factor = self.queue_factor(freq_ghz)
        total_chain_ns = segment.total_chain_ns * queue_factor
        if segment.n_clusters:
            hide_ns = self._rob_hide_insns * segment.cpi / freq_ghz
            commit_under_ns = (
                self.spec.core.commit_under_miss_insns * segment.cpi / freq_ghz
            )
            exposed = np.maximum(segment.chain_ns * queue_factor - hide_ns, 0.0)
            exposed_sum = float(exposed.sum())
            # Compute hidden underneath chains is not paid again, bounded by
            # the compute actually available.
            hidden_compute = min(total_chain_ns - exposed_sum, compute_ns)
            # The stall-time counter only sees cycles with zero commit.
            stall_ns = float(np.maximum(exposed - commit_under_ns, 0.0).sum())
            wall_ns = compute_ns - hidden_compute + total_chain_ns
        else:
            stall_ns = 0.0
            wall_ns = compute_ns
        counters = CounterSet(
            active_ns=wall_ns,
            # CRIT tracks every dependent chain through DRAM in full;
            # leading loads charges one representative miss per cluster.
            # Counters record latencies as served at *this* frequency.
            crit_ns=total_chain_ns,
            leading_ns=segment.leading_total_ns * queue_factor,
            stall_ns=stall_ns,
            insns=segment.insns,
        )
        return SegmentTiming(wall_ns=wall_ns, counters=counters)

    def time_store_burst(
        self, segment: StoreBurstSegment, freq_ghz: float
    ) -> SegmentTiming:
        """A burst of store misses, throttled by the store queue when full.

        The SQ-full time is recorded in the new counter the paper proposes;
        CRIT's counter is untouched (stores are off CRIT's critical path) —
        that gap is what distinguishes the +BURST predictors.
        """
        timing = self._sq_model.burst(
            segment.n_stores, segment.drain_ns_per_store, freq_ghz
        )
        counters = CounterSet(
            active_ns=timing.wall_ns,
            sqfull_ns=timing.sq_full_ns,
            insns=segment.n_stores,
            stores=segment.n_stores,
        )
        return SegmentTiming(wall_ns=timing.wall_ns, counters=counters)

    # ------------------------------------------------------------------
    # Batched timing
    # ------------------------------------------------------------------

    def time_batch_multi(
        self, batch: SegmentBatch, freqs_ghz: Sequence[float]
    ) -> List[BatchTiming]:
        """Time every segment of ``batch`` at each of ``freqs_ghz``.

        Returns one :class:`BatchTiming` per entry of ``freqs_ghz``; the
        DES pre-times a program at one frequency (``[f]``), a batch group
        at all of its set points in one call. Every wall time and counter
        value equals the scalar :meth:`time_segment` result for the same
        segment: the vectorized expressions perform the identical
        IEEE-754 operations elementwise.

        The concatenated cluster array (the dominant traffic for
        memory-heavy programs) is walked in chunks of about
        :data:`_MULTI_CHUNK` elements, cut at segment boundaries, and each
        chunk is timed at every frequency while it is cache-hot. The
        per-segment hide and commit terms are divided by the frequency
        before they are repeated over the chunk's clusters, so no buffer
        the length of the whole cluster array is ever built. Per-segment
        sums take one row-block ``sum`` per run of equal-count segments
        (:attr:`SegmentBatch.m_runs`, split at chunk edges): each row is
        one segment's contiguous slice, summed pairwise to the same bits
        as the scalar path's ``.sum()`` of the standalone array.
        """
        freqs = [float(f) for f in freqs_ghz]
        nf = len(freqs)
        results = [
            BatchTiming(walls=[0.0] * batch.n, counters=[None] * batch.n)
            for _ in freqs
        ]

        if batch.c_pos:
            # time_segment evaluates (insns * cpi) / f left to right; the
            # frequency-invariant product is hoisted, the division stays
            # per frequency — the same two operations per element.
            prod = batch.c_insns_f * batch.c_cpi
            for fi, freq_ghz in enumerate(freqs):
                wall_arr = prod / freq_ghz
                walls = results[fi].walls
                counters = results[fi].counters
                for pos, wall, insns in zip(
                    batch.c_pos, wall_arr.tolist(), batch.c_insns
                ):
                    walls[pos] = wall
                    counters[pos] = CounterSet(wall, 0.0, 0.0, 0.0, 0.0, insns, 0)

        if batch.s_pos:
            # The store-queue fluid expressions depend on frequency through
            # produce_rate; the block is simply repeated per frequency
            # (store segments are rare — no cache-blocking needed).
            entries = self._sq_model.config.entries
            for fi, freq_ghz in enumerate(freqs):
                produce_rate = self._sq_model.store_issue_per_cycle * freq_ghz
                with np.errstate(all="ignore"):
                    drain_rate = 1.0 / batch.s_drain
                    issue = batch.s_stores_f / produce_rate
                    fill = entries / (produce_rate - drain_rate)
                    issued_at_fill = produce_rate * fill
                    remaining = batch.s_stores_f - issued_at_fill
                    full = remaining * batch.s_drain
                    stalled = (drain_rate < produce_rate) & (fill < issue)
                    wall_arr = np.where(stalled, fill + full, issue)
                    sq_full_arr = np.where(stalled, full, 0.0)
                walls = results[fi].walls
                counters = results[fi].counters
                for pos, wall, sq_full, n_stores in zip(
                    batch.s_pos, wall_arr.tolist(), sq_full_arr.tolist(),
                    batch.s_stores,
                ):
                    walls[pos] = wall
                    counters[pos] = CounterSet(
                        wall, 0.0, 0.0, 0.0, sq_full, n_stores, n_stores
                    )

        if batch.m_pos:
            counts = batch.m_cluster_counts
            offsets = batch.m_cluster_offsets
            n_m = len(batch.m_pos)
            queue_factors = [self.queue_factor(f) for f in freqs]
            compute_num = batch.m_insns_f * batch.m_cpi
            hide_num = self._rob_hide_insns * batch.m_cpi
            commit_num = self.spec.core.commit_under_miss_insns * batch.m_cpi
            exposed_sums = np.zeros((nf, n_m))
            stall_sums = np.zeros((nf, n_m))
            if int(offsets[-1]):
                clusters = batch.m_clusters
                runs = batch.m_runs
                run = 0
                lo_seg = 0
                while lo_seg < n_m:
                    target = int(offsets[lo_seg]) + self._MULTI_CHUNK
                    hi_seg = int(np.searchsorted(offsets, target, side="right")) - 1
                    hi_seg = min(max(hi_seg, lo_seg + 1), n_m)
                    clo = int(offsets[lo_seg])
                    chi = int(offsets[hi_seg])
                    if clo == chi:  # a run of cluster-free segments
                        lo_seg = hi_seg
                        continue
                    chunk = clusters[clo:chi]
                    chunk_counts = counts[lo_seg:hi_seg]
                    chunk_hide = hide_num[lo_seg:hi_seg]
                    chunk_commit = commit_num[lo_seg:hi_seg]
                    exposed = np.empty((nf, chi - clo))
                    stall = np.empty((nf, chi - clo))
                    for fi, freq_ghz in enumerate(freqs):
                        # (a * cpi) / f per segment, then repeated per
                        # cluster: the scalar path's operations, in order.
                        row_e = exposed[fi]
                        row_s = stall[fi]
                        np.multiply(chunk, queue_factors[fi], out=row_e)
                        np.subtract(
                            row_e,
                            np.repeat(chunk_hide / freq_ghz, chunk_counts),
                            out=row_e,
                        )
                        np.maximum(row_e, 0.0, out=row_e)
                        np.subtract(
                            row_e,
                            np.repeat(chunk_commit / freq_ghz, chunk_counts),
                            out=row_s,
                        )
                        np.maximum(row_s, 0.0, out=row_s)
                    # Per-segment reductions, all frequencies at once: one
                    # row-block sum per run of equal-count segments (or the
                    # part of a run inside this chunk).
                    while run < len(runs) and runs[run][0] < hi_seg:
                        lo, hi, n_clusters = runs[run]
                        lo = max(lo, lo_seg)
                        end = min(hi, hi_seg)
                        blo = int(offsets[lo]) - clo
                        bhi = int(offsets[end]) - clo
                        shape = (nf, end - lo, n_clusters)
                        exposed_sums[:, lo:end] = (
                            exposed[:, blo:bhi].reshape(shape).sum(axis=2)
                        )
                        stall_sums[:, lo:end] = (
                            stall[:, blo:bhi].reshape(shape).sum(axis=2)
                        )
                        if hi > hi_seg:
                            break  # the run goes on in the next chunk
                        run += 1
                    lo_seg = hi_seg
            clustered = counts > 0
            for fi, freq_ghz in enumerate(freqs):
                queue_factor = queue_factors[fi]
                compute_arr = compute_num / freq_ghz
                total_chain_arr = batch.m_total_chain * queue_factor
                leading_arr = batch.m_leading * queue_factor
                hidden = np.minimum(total_chain_arr - exposed_sums[fi], compute_arr)
                wall_arr = np.where(
                    clustered, compute_arr - hidden + total_chain_arr, compute_arr
                )
                stall_arr = np.where(clustered, stall_sums[fi], 0.0)
                walls = results[fi].walls
                counters = results[fi].counters
                for pos, wall, total, leading, stall_v, insns in zip(
                    batch.m_pos, wall_arr.tolist(), total_chain_arr.tolist(),
                    leading_arr.tolist(), stall_arr.tolist(), batch.m_insns,
                ):
                    walls[pos] = wall
                    counters[pos] = CounterSet(
                        wall, total, leading, stall_v, 0.0, insns, 0
                    )

        return results
