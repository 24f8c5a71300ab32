"""Variable-latency DRAM model.

CRIT exists because real memory systems serve requests with *variable*
latency — row-buffer hits are fast, row conflicts are slow, and queueing at
the memory controller adds more variance (Section II.A). This module draws
each access of a load-miss chain as a row hit, miss or conflict of an
open-page DRAM plus a queueing delay (:class:`ChainSampler`), so that the
chains fed to the predictors carry realistic, non-uniform latencies.

DRAM latency is expressed in nanoseconds and is *independent of core
frequency*: this is the physical fact the whole scaling/non-scaling
decomposition rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.arch.segments import MemorySegment
from repro.common.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class DramConfig:
    """Timing and geometry parameters of the memory system."""

    n_banks: int = 8
    #: Latency of a row-buffer hit (already-open row), controller to data.
    row_hit_ns: float = 32.0
    #: Latency when the bank's row buffer is empty (closed row).
    row_miss_ns: float = 52.0
    #: Latency when another row is open and must be written back first.
    row_conflict_ns: float = 72.0
    #: Extra queueing delay per in-flight request ahead of this one.
    queue_ns_per_request: float = 6.0
    #: Bytes per DRAM column burst (one cache line).
    line_bytes: int = 64
    #: Sustainable per-core drain interval for an isolated cache line of
    #: store traffic (bandwidth-bound, used by the store-queue model).
    store_line_drain_ns: float = 12.0
    #: Relative DRAM latency increase per GHz of core frequency above
    #: 1 GHz: faster cores issue misses at a higher rate, deepening the
    #: controller queues. This is *actual* machine behaviour the predictors
    #: cannot observe from base-frequency counters — one of the honest
    #: residual error sources of every model, including DEP+BURST.
    queue_freq_sensitivity_per_ghz: float = 0.025

    def __post_init__(self) -> None:
        check_positive("n_banks", self.n_banks)
        check_positive("row_hit_ns", self.row_hit_ns)
        check_positive("row_miss_ns", self.row_miss_ns)
        check_positive("row_conflict_ns", self.row_conflict_ns)
        check_non_negative("queue_ns_per_request", self.queue_ns_per_request)
        check_positive("line_bytes", self.line_bytes)
        check_positive("store_line_drain_ns", self.store_line_drain_ns)


#: Pending DRAM accesses after which a :class:`ChainSampler` flushes. Large
#: enough to spread each flush's NumPy calls over dozens of segments, small
#: enough that the pending draws stay a few tens of KB.
_FLUSH_DRAWS = 4096


class ChainSampler:
    """Builds the memory segments of one action stream in batches.

    Each access of a dependent chain is a row-buffer hit with probability
    ``locality`` (high for a pointer chase through a fresh nursery, low
    for a scattered object graph), else a row miss or conflict (3:5),
    plus an exponential queueing delay of mean ``queue_ns_per_request``.

    :meth:`draw` consumes ``rng`` at once, in per-segment order: depths,
    row draws, queueing draws. :meth:`place` leaves a placeholder in the
    action list; the arithmetic waits until about :data:`_FLUSH_DRAWS`
    accesses are pending, so each NumPy call covers many segments.
    Call :meth:`flush` once more when the stream ends.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        config: DramConfig,
        locality: float,
        action: Callable[[MemorySegment], Any],
    ) -> None:
        self._rng = rng
        self._config = config
        self._locality = locality
        self._p_miss = locality + (1.0 - locality) * 0.375
        #: Wraps a finished segment into the action its list holds.
        self._action = action
        self._drawn: Optional[np.ndarray] = None
        self._depths: List[np.ndarray] = []
        self._rows: List[np.ndarray] = []
        self._queue: List[np.ndarray] = []
        self._slots: List[Tuple[List[Any], int, int, float]] = []
        self._pending_clusters = 0
        self._pending_draws = 0

    def draw(
        self, n_clusters: int, *, mean_depth: Optional[float] = None, depth: int = 1
    ) -> None:
        """Draw the latencies of the next segment's ``n_clusters`` chains.

        Depths are geometric with mean ``mean_depth`` when it is given,
        else every chain is ``depth`` accesses long.
        """
        if self._drawn is not None:
            raise ValueError("the previous draw was never placed")
        if n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {n_clusters!r}")
        rng = self._rng
        if mean_depth is None or not n_clusters:
            depths = np.full(n_clusters, depth, dtype=np.int64)
        else:
            depths = rng.geometric(1.0 / mean_depth, n_clusters)
        self._drawn = depths
        if not n_clusters:
            return
        total = int(depths.sum())
        self._rows.append(rng.random(total))
        if self._config.queue_ns_per_request > 0:
            self._queue.append(
                rng.exponential(self._config.queue_ns_per_request, total)
            )
        self._pending_draws += total

    def place(self, actions: List[Any], insns: int, cpi: float) -> None:
        """Append the segment of the last :meth:`draw` to ``actions``."""
        depths = self._drawn
        if depths is None:
            raise ValueError("place() needs a draw() first")
        self._drawn = None
        if not depths.size:
            actions.append(
                self._action(MemorySegment.from_clusters(insns=insns, cpi=cpi))
            )
            return
        self._depths.append(depths)
        self._pending_clusters += depths.size
        self._slots.append((actions, len(actions), insns, cpi))
        actions.append(None)
        if self._pending_draws >= _FLUSH_DRAWS:
            self.flush()

    def flush(self) -> None:
        """Fill every placeholder left since the last flush."""
        if self._drawn is not None:
            raise ValueError("the last draw was never placed")
        if not self._slots:
            return
        cfg = self._config
        # The segments keep views of this array: allocating it before the
        # temporaries below keeps it from pinning their freed space.
        chains = np.empty(self._pending_clusters)
        depths = np.concatenate(self._depths)
        if int(depths.min()) < 1:
            raise ValueError("chain depths must be positive")
        rows = np.concatenate(self._rows)
        lat = np.where(
            rows < self._locality,
            cfg.row_hit_ns,
            np.where(rows < self._p_miss, cfg.row_miss_ns, cfg.row_conflict_ns),
        )
        if self._queue:
            lat += np.concatenate(self._queue)
        starts = np.zeros(depths.size, dtype=np.int64)
        np.cumsum(depths[:-1], out=starts[1:])
        np.add.reduceat(lat, starts, out=chains)
        chains.setflags(write=False)
        leading = chains / depths
        stop = 0
        for (actions, index, insns, cpi), segment_depths in zip(
            self._slots, self._depths
        ):
            start, stop = stop, stop + segment_depths.size
            actions[index] = self._action(
                MemorySegment(
                    insns=insns,
                    cpi=cpi,
                    chain_ns=chains[start:stop],
                    leading_total_ns=float(leading[start:stop].sum()),
                )
            )
        self._depths, self._rows, self._queue, self._slots = [], [], [], []
        self._pending_clusters = self._pending_draws = 0
