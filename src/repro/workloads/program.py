"""Program containers: per-thread action lists plus workload metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.workloads.items import Action, Allocate


@dataclass(frozen=True)
class ThreadProgram:
    """The deterministic action sequence of one application thread."""

    name: str
    actions: Tuple[Action, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise ConfigError(f"thread {self.name!r} has an empty program")

    def total_allocated_bytes(self) -> int:
        """Total bytes this thread allocates from the managed heap."""
        return sum(
            action.n_bytes for action in self.actions if isinstance(action, Allocate)
        )


@dataclass(frozen=True)
class Program:
    """A full multithreaded workload: application threads + JVM parameters.

    The JVM service threads (GC, JIT) are not part of the program; the
    runtime adds them when the program is loaded onto the simulated machine.
    """

    name: str
    threads: Tuple[ThreadProgram, ...]
    #: Heap size in bytes (Table I's per-benchmark heap column).
    heap_bytes: int
    #: Nursery size in bytes (default generational nursery).
    nursery_bytes: int
    #: Fraction of nursery bytes that survive a minor collection.
    survival_rate: float = 0.15
    #: Seed that generated this program (for reproducibility records).
    seed: int = 0
    #: Free-form labels, e.g. {"type": "memory-intensive"}.
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.threads:
            raise ConfigError(f"program {self.name!r} has no threads")
        if self.heap_bytes <= 0 or self.nursery_bytes <= 0:
            raise ConfigError("heap_bytes and nursery_bytes must be positive")
        if self.nursery_bytes > self.heap_bytes:
            raise ConfigError("nursery cannot exceed the heap")
        if not 0.0 <= self.survival_rate <= 1.0:
            raise ConfigError("survival_rate must be in [0, 1]")

    @property
    def n_threads(self) -> int:
        """Number of application threads."""
        return len(self.threads)

    def total_allocated_bytes(self) -> int:
        """Bytes allocated by all threads over the whole run."""
        return sum(thread.total_allocated_bytes() for thread in self.threads)


def sequential_program(
    name: str,
    actions: Sequence[Action],
    heap_bytes: int = 64 << 20,
    nursery_bytes: int = 8 << 20,
) -> Program:
    """Convenience constructor for single-threaded programs (tests, examples)."""
    thread = ThreadProgram(name=f"{name}-t0", actions=tuple(actions))
    return Program(
        name=name,
        threads=(thread,),
        heap_bytes=heap_bytes,
        nursery_bytes=nursery_bytes,
    )
