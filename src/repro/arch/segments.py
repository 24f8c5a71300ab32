"""Timed work segments — the leaf units the core timing model executes.

A workload (see :mod:`repro.workloads`) eventually decomposes into a
per-thread sequence of three segment kinds:

* :class:`ComputeSegment` — pure pipeline work, scales with frequency;
* :class:`MemorySegment` — pipeline work punctuated by LLC-miss *clusters*,
  each a dependent chain of DRAM accesses with a pre-drawn total latency
  (frequency-invariant);
* :class:`StoreBurstSegment` — a burst of store misses (zero-initialization
  or GC copying) whose wall time is governed by the store-queue fluid model.

Segments carry all frequency-*independent* information; the core model
turns a ``(segment, frequency)`` pair into wall time plus counter
increments. Because a segment is re-timed at every simulated frequency,
:class:`MemorySegment` stores its cluster population as a NumPy array of
chain latencies (plus the pre-summed leading-load latency) rather than a
list of objects — the timing hot path is then two vectorized expressions.
:class:`MissCluster` remains as the convenient scalar construction unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigError
from repro.common.validation import check_positive

_EMPTY_CHAINS = np.zeros(0, dtype=np.float64)
_EMPTY_CHAINS.setflags(write=False)


@dataclass(frozen=True)
class ComputeSegment:
    """A run of ``insns`` instructions at ``cpi`` cycles per instruction."""

    insns: int
    cpi: float

    def __post_init__(self) -> None:
        check_positive("insns", self.insns)
        check_positive("cpi", self.cpi)


@dataclass(frozen=True)
class MissCluster:
    """A dependent chain of ``depth`` LLC misses totalling ``chain_ns``.

    ``chain_ns`` is the accumulated latency of the chain's critical path
    through DRAM (what CRIT's counter is designed to measure); independent
    misses overlapped within the cluster do not extend it.
    """

    depth: int
    chain_ns: float

    def __post_init__(self) -> None:
        check_positive("depth", self.depth)
        check_positive("chain_ns", self.chain_ns)

    @property
    def leading_ns(self) -> float:
        """The leading-loads approximation: one representative miss latency."""
        return self.chain_ns / self.depth


@dataclass(frozen=True, eq=False)
class MemorySegment:
    """Compute work interleaved with LLC-miss clusters.

    ``chain_ns`` holds one dependent-chain latency per cluster;
    ``leading_total_ns`` is the pre-summed leading-loads contribution
    (one representative miss latency per cluster).
    """

    insns: int
    cpi: float
    chain_ns: np.ndarray
    leading_total_ns: float

    def __post_init__(self) -> None:
        check_positive("insns", self.insns)
        check_positive("cpi", self.cpi)
        chains = np.asarray(self.chain_ns, dtype=np.float64)
        if chains.ndim != 1:
            raise ConfigError("chain_ns must be a 1-D array of latencies")
        if chains.size and float(chains.min()) <= 0.0:
            raise ConfigError("all chain latencies must be positive")
        if self.leading_total_ns < 0:
            raise ConfigError("leading_total_ns must be >= 0")
        if chains.size == 0 and self.leading_total_ns != 0.0:
            raise ConfigError("leading_total_ns must be 0 with no clusters")
        chains.setflags(write=False)
        object.__setattr__(self, "chain_ns", chains)
        object.__setattr__(self, "_total_chain_ns", float(chains.sum()))

    @classmethod
    def from_clusters(
        cls, insns: int, cpi: float, clusters: Sequence[MissCluster] = ()
    ) -> "MemorySegment":
        """Build from scalar :class:`MissCluster` objects (tests, examples)."""
        if clusters:
            chains = np.array([c.chain_ns for c in clusters], dtype=np.float64)
            leading = float(sum(c.leading_ns for c in clusters))
        else:
            chains = _EMPTY_CHAINS
            leading = 0.0
        return cls(insns=insns, cpi=cpi, chain_ns=chains, leading_total_ns=leading)

    @property
    def n_clusters(self) -> int:
        """Number of LLC-miss clusters."""
        return int(self.chain_ns.size)

    @property
    def total_chain_ns(self) -> float:
        """Sum of all clusters' dependent-chain latencies (CRIT's counter)."""
        return self._total_chain_ns  # type: ignore[attr-defined]


@dataclass(frozen=True)
class StoreBurstSegment:
    """A burst of ``n_stores`` store misses draining at a memory-bound rate.

    ``drain_ns_per_store`` reflects coalescing: sequential zero-init stores
    share cache lines and drain faster per store than scattered GC-copy
    stores.
    """

    n_stores: int
    drain_ns_per_store: float

    def __post_init__(self) -> None:
        check_positive("n_stores", self.n_stores)
        check_positive("drain_ns_per_store", self.drain_ns_per_store)


Segment = Union[ComputeSegment, MemorySegment, StoreBurstSegment]


class SegmentBatch:
    """Columnar view of a run of consecutive segments, for vectorized timing.

    The discrete-event core merges runs of back-to-back segments (long
    allocation zero-init bursts, GC trace/copy chunk sequences) into one
    scheduled "plan"; this class regroups the plan's segments by kind into
    flat NumPy columns so :meth:`~repro.arch.core.CoreModel.time_batch` can
    time a whole run with a handful of array expressions instead of one
    Python dispatch per segment.

    Memory segments are ordered by cluster count (a stable sort, so equal
    counts keep their plan order) and ``m_pos`` maps each back to its
    plan position. Their cluster latencies are concatenated into a single
    array with CSR-style ``m_cluster_offsets``, so each run of equal-count
    segments, ``m_runs`` entry ``(lo, hi, n_clusters)``, is one
    ``(hi - lo, n_clusters)`` block. Summing a block along its rows is
    NumPy's own pairwise kernel applied to each segment's contiguous
    slice: the same additions in the same order as the scalar
    ``time_memory`` path's ``.sum()`` — batching must not perturb a single
    bit.
    """

    __slots__ = (
        "n",
        "c_pos", "c_insns", "c_insns_f", "c_cpi",
        "m_pos", "m_insns", "m_insns_f", "m_cpi", "m_total_chain",
        "m_leading", "m_clusters", "m_cluster_offsets", "m_cluster_counts",
        "m_runs",
        "s_pos", "s_stores", "s_stores_f", "s_drain",
    )

    def __init__(self, segments: Sequence[Segment]) -> None:
        self.n = len(segments)
        c_pos: List[int] = []
        c_insns: List[int] = []
        c_cpi: List[float] = []
        m_pos: List[int] = []
        m_insns: List[int] = []
        m_cpi: List[float] = []
        m_total: List[float] = []
        m_leading: List[float] = []
        m_chains: List[np.ndarray] = []
        s_pos: List[int] = []
        s_stores: List[int] = []
        s_drain: List[float] = []
        for pos, segment in enumerate(segments):
            kind = type(segment)
            if kind is ComputeSegment:
                c_pos.append(pos)
                c_insns.append(segment.insns)
                c_cpi.append(segment.cpi)
            elif kind is StoreBurstSegment:
                s_pos.append(pos)
                s_stores.append(segment.n_stores)
                s_drain.append(segment.drain_ns_per_store)
            elif kind is MemorySegment:
                m_pos.append(pos)
                m_insns.append(segment.insns)
                m_cpi.append(segment.cpi)
                m_total.append(segment.total_chain_ns)
                m_leading.append(segment.leading_total_ns)
                m_chains.append(segment.chain_ns)
            else:
                raise ConfigError(f"unknown segment type: {segment!r}")
        self.c_pos = c_pos
        self.c_insns = c_insns
        self.c_insns_f = np.array(c_insns, dtype=np.float64) if c_pos else None
        self.c_cpi = np.array(c_cpi, dtype=np.float64) if c_pos else None
        self.m_runs: List[Tuple[int, int, int]] = []
        if m_pos:
            counts = np.array([c.size for c in m_chains], dtype=np.intp)
            order = np.argsort(counts, kind="stable")
            counts = counts[order]
            index = order.tolist()
            m_pos = [m_pos[i] for i in index]
            m_insns = [m_insns[i] for i in index]
            self.m_insns_f = np.array(m_insns, dtype=np.float64)
            self.m_cpi = np.array(m_cpi, dtype=np.float64)[order]
            self.m_total_chain = np.array(m_total, dtype=np.float64)[order]
            self.m_leading = np.array(m_leading, dtype=np.float64)[order]
            self.m_cluster_counts = counts
            offsets = np.zeros(len(m_chains) + 1, dtype=np.intp)
            np.cumsum(counts, out=offsets[1:])
            self.m_cluster_offsets = offsets
            if int(offsets[-1]):
                self.m_clusters = np.concatenate([m_chains[i] for i in index])
                lows = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist()]
                highs = [*lows[1:], len(index)]
                self.m_runs = [
                    (lo, hi, n)
                    for lo, hi, n in zip(lows, highs, counts[lows].tolist())
                    if n
                ]
            else:
                self.m_clusters = _EMPTY_CHAINS
        else:
            self.m_insns_f = None
            self.m_cpi = None
            self.m_total_chain = None
            self.m_leading = None
            self.m_clusters = None
            self.m_cluster_offsets = None
            self.m_cluster_counts = None
        self.m_pos = m_pos
        self.m_insns = m_insns
        self.s_pos = s_pos
        self.s_stores = s_stores
        self.s_stores_f = np.array(s_stores, dtype=np.float64) if s_pos else None
        self.s_drain = np.array(s_drain, dtype=np.float64) if s_pos else None
