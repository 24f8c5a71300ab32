"""Cache geometry and hit latency of one level of the memory hierarchy.

The segment-level core model does not simulate cache contents: workloads
describe their memory phases directly as LLC-miss cluster structure.
:class:`CacheConfig` records each level's geometry for Table II and
supplies the L3 hit latency (``MachineSpec.l3_latency_ns``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.validation import check_positive, check_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    #: Hit latency, in cycles of the clock domain the cache belongs to
    #: (core clock for L1/L2, uncore clock for L3 — see MachineSpec).
    latency_cycles: int

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)
        check_positive("assoc", self.assoc)
        check_power_of_two("line_bytes", self.line_bytes)
        check_positive("latency_cycles", self.latency_cycles)
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def n_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

