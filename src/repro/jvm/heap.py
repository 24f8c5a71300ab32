"""Generational heap accounting.

The heap is split into a nursery (young generation) and a mature space.
Application threads bump-allocate into the nursery; when an allocation does
not fit, a minor (nursery) collection runs, promoting survivors to the
mature space. When the mature space fills past a threshold, the next
collection is a full-heap collection.

All state transitions are driven purely by the *logical* allocation stream,
so the number and placement (in allocation order) of collections is
identical at every frequency — only their wall-clock timing differs. This
matches the paper's setup, where the same replay-compiled workload is run
at each frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError, SimulationError


@dataclass
class HeapState:
    """Occupancy bookkeeping for a generational heap."""

    heap_bytes: int
    nursery_bytes: int
    #: Mature occupancy fraction beyond which the next GC is a full GC.
    full_gc_threshold: float = 0.8
    nursery_used: int = 0
    mature_used: int = 0
    total_allocated: int = 0
    minor_gcs: int = 0
    full_gcs: int = 0

    def __post_init__(self) -> None:
        if self.nursery_bytes <= 0 or self.heap_bytes <= 0:
            raise ConfigError("heap and nursery sizes must be positive")
        if self.nursery_bytes >= self.heap_bytes:
            raise ConfigError("nursery must be smaller than the heap")
        if not 0.0 < self.full_gc_threshold <= 1.0:
            raise ConfigError("full_gc_threshold must be in (0, 1]")

    @property
    def mature_capacity(self) -> int:
        """Bytes available to the mature space."""
        return self.heap_bytes - self.nursery_bytes

    def fits(self, n_bytes: int) -> bool:
        """True if ``n_bytes`` fits in the nursery right now."""
        return self.nursery_used + n_bytes <= self.nursery_bytes

    def allocate(self, n_bytes: int) -> None:
        """Bump-allocate ``n_bytes`` in the nursery; caller ensured it fits."""
        if n_bytes <= 0:
            raise SimulationError(f"allocation of {n_bytes} bytes")
        if not self.fits(n_bytes):
            raise SimulationError(
                f"allocation of {n_bytes} B does not fit "
                f"({self.nursery_used}/{self.nursery_bytes} B used); "
                "a collection must run first"
            )
        self.nursery_used += n_bytes
        self.total_allocated += n_bytes

    def needs_full_gc(self) -> bool:
        """True when mature occupancy crossed the full-GC threshold."""
        return self.mature_used >= self.full_gc_threshold * self.mature_capacity

    def plan_minor(self, survival_rate: float) -> int:
        """Compute (without applying) the survivors of a nursery collection."""
        if not 0.0 <= survival_rate <= 1.0:
            raise SimulationError(f"survival rate {survival_rate} out of [0,1]")
        survivors = int(self.nursery_used * survival_rate)
        return min(survivors, self.mature_capacity - self.mature_used)

    def commit_minor(self, survivors: int) -> None:
        """Apply a planned nursery collection: promote ``survivors`` bytes."""
        if survivors < 0 or survivors > self.mature_capacity - self.mature_used:
            raise SimulationError(
                f"cannot promote {survivors} B into mature space "
                f"({self.mature_used}/{self.mature_capacity} B used)"
            )
        self.mature_used += survivors
        self.nursery_used = 0
        self.minor_gcs += 1

    def do_minor_gc(self, survival_rate: float) -> int:
        """Collect the nursery; return the surviving (promoted) byte count."""
        survivors = self.plan_minor(survival_rate)
        self.commit_minor(survivors)
        return survivors

    def plan_full(self, survival_rate: float, mature_live_fraction: float) -> int:
        """Compute (without applying) live mature bytes after a full collection."""
        if not 0.0 <= survival_rate <= 1.0:
            raise SimulationError(f"survival rate {survival_rate} out of [0,1]")
        if not 0.0 <= mature_live_fraction <= 1.0:
            raise SimulationError(
                f"mature live fraction {mature_live_fraction} out of [0,1]"
            )
        nursery_survivors = int(self.nursery_used * survival_rate)
        live = int(self.mature_used * mature_live_fraction) + nursery_survivors
        return min(live, self.mature_capacity)

    def commit_full(self, live_after: int) -> None:
        """Apply a planned full collection: mature space holds ``live_after``."""
        if not 0 <= live_after <= self.mature_capacity:
            raise SimulationError(
                f"full GC result {live_after} B exceeds mature capacity"
            )
        self.mature_used = live_after
        self.nursery_used = 0
        self.full_gcs += 1

    def do_full_gc(self, survival_rate: float, mature_live_fraction: float) -> int:
        """Collect the whole heap; return total live bytes after collection.

        ``mature_live_fraction`` is the fraction of the mature space that is
        still reachable (the rest is garbage reclaimed by the full GC).
        """
        live = self.plan_full(survival_rate, mature_live_fraction)
        self.commit_full(live)
        return live

    @property
    def gc_count(self) -> int:
        """Total collections so far."""
        return self.minor_gcs + self.full_gcs
