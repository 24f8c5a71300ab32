"""Machine configuration (the paper's Table II).

The simulated machine follows the paper's quad-core Intel Haswell
(i7-4770K-like) configuration: four superscalar out-of-order cores with
private L1/L2 caches and a shared L3, core frequency scalable between 1 and
4 GHz in 125 MHz steps, and a fixed-frequency uncore.

Latency unit conventions mirror how DVFS affects each component:

* L1/L2 latencies are given in **core cycles** — they scale with frequency,
* L3 and DRAM latencies are given in **nanoseconds** — the uncore and memory
  run on their own clock and do not scale with core frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.common.units import check_frequency
from repro.common.validation import check_positive, require
from repro.arch.cache import CacheConfig
from repro.arch.dram import DramConfig
from repro.arch.storequeue import StoreQueueConfig


@dataclass(frozen=True)
class CoreSpec:
    """Static parameters of one out-of-order core."""

    #: Dispatch/commit width in instructions per cycle.
    width: int = 4
    #: Reorder-buffer capacity in instructions.
    rob_entries: int = 192
    #: Fraction of the ROB usable to hide a load-miss chain's latency by
    #: executing independent instructions underneath it. Real windows hide
    #: only a modest slice of a DRAM miss: dependent work dominates the
    #: window once a chain stalls the head of the ROB.
    rob_hide_fraction: float = 0.2
    #: Peak store issue rate in stores per cycle (bursts of simple stores).
    store_issue_per_cycle: float = 2.0
    #: Instructions the core can still commit underneath an exposed miss
    #: before the stall-time counter starts counting (models commit-under-miss
    #: that makes the stall-time predictor optimistic, Section II.A).
    commit_under_miss_insns: int = 24

    def __post_init__(self) -> None:
        check_positive("width", self.width)
        check_positive("rob_entries", self.rob_entries)
        check_positive("store_issue_per_cycle", self.store_issue_per_cycle)
        require(0.0 <= self.rob_hide_fraction <= 1.0, "rob_hide_fraction in [0,1]")


@dataclass(frozen=True)
class MachineSpec:
    """Full machine description (paper Table II)."""

    n_cores: int = 4
    min_freq_ghz: float = 1.0
    max_freq_ghz: float = 4.0
    freq_step_ghz: float = 0.125
    core: CoreSpec = field(default_factory=CoreSpec)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1I", size_bytes=32 * 1024, assoc=4, line_bytes=64, latency_cycles=2
        )
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=32 * 1024, assoc=4, line_bytes=64, latency_cycles=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=256 * 1024, assoc=8, line_bytes=64, latency_cycles=11
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L3", size_bytes=4 * 1024 * 1024, assoc=16, line_bytes=64,
            latency_cycles=40,
        )
    )
    #: Fixed uncore clock in GHz; L3 latency in ns = latency_cycles / uncore.
    uncore_freq_ghz: float = 1.5
    dram: DramConfig = field(default_factory=DramConfig)
    store_queue: StoreQueueConfig = field(default_factory=StoreQueueConfig)
    #: DVFS transition cost (Section IV: "fixed cost of 2 microseconds").
    dvfs_transition_ns: float = 2_000.0

    def __post_init__(self) -> None:
        check_positive("n_cores", self.n_cores)
        check_frequency("min_freq_ghz", self.min_freq_ghz)
        check_frequency("max_freq_ghz", self.max_freq_ghz)
        check_frequency("freq_step_ghz", self.freq_step_ghz)
        require(
            self.max_freq_ghz >= self.min_freq_ghz,
            "max_freq_ghz must be >= min_freq_ghz",
        )
        check_frequency("uncore_freq_ghz", self.uncore_freq_ghz)

    @property
    def l3_latency_ns(self) -> float:
        """Shared L3 hit latency in nanoseconds (uncore-clocked, non-scaling)."""
        return self.l3.latency_cycles / self.uncore_freq_ghz

    def frequencies(self) -> Tuple[float, ...]:
        """All supported DVFS set points, ascending (125 MHz granularity)."""
        freqs = []
        freq = self.min_freq_ghz
        # Use an integer loop to avoid float accumulation drift.
        steps = int(round((self.max_freq_ghz - self.min_freq_ghz) / self.freq_step_ghz))
        for i in range(steps + 1):
            freqs.append(round(self.min_freq_ghz + i * self.freq_step_ghz, 6))
        del freq
        return tuple(freqs)

    def table_rows(self) -> Tuple[Tuple[str, str], ...]:
        """Rows of the paper's Table II for report rendering."""
        return (
            ("Processor", f"{self.n_cores} cores, "
                          f"{self.min_freq_ghz:.1f} GHz to {self.max_freq_ghz:.1f} GHz"),
            ("Core", f"{self.core.width}-wide OoO, ROB {self.core.rob_entries}, "
                     f"SQ {self.store_queue.entries} entries"),
            ("Cache capacity", f"{self.l1i.size_bytes // 1024} KB / "
                               f"{self.l1d.size_bytes // 1024} KB / "
                               f"{self.l2.size_bytes // 1024} KB / "
                               f"{self.l3.size_bytes // (1024 * 1024)} MB"),
            ("Cache latency", f"{self.l1i.latency_cycles} / {self.l1d.latency_cycles}"
                              f" / {self.l2.latency_cycles} / {self.l3.latency_cycles}"
                              " cycles"),
            ("Set-associativity", f"{self.l1i.assoc} / {self.l1d.assoc} / "
                                  f"{self.l2.assoc} / {self.l3.assoc}"),
            ("Line size", f"{self.l1d.line_bytes} B lines, LRU replacement"),
            ("Uncore", f"shared L3 at {self.uncore_freq_ghz:.1f} GHz"),
            ("DRAM", f"row hit {self.dram.row_hit_ns:.0f} ns, "
                     f"row conflict {self.dram.row_conflict_ns:.0f} ns, "
                     f"{self.dram.n_banks} banks"),
            ("DVFS", f"{self.freq_step_ghz * 1000:.0f} MHz steps, "
                     f"{self.dvfs_transition_ns / 1000:.0f} us transition"),
        )


def haswell_i7_4770k() -> MachineSpec:
    """The default machine of the paper's evaluation (Table II)."""
    return MachineSpec()
