"""Per-core performance counters read by the DVFS predictors.

The predictors never see the simulator's ground truth; they see only what a
real implementation would expose (Section III.E):

* ``crit_ns`` — CRIT's accumulated dependent-miss critical-path latency,
* ``leading_ns`` — the leading-loads accumulated latency,
* ``stall_ns`` — commit-stall time (the classic stall-time counter),
* ``sqfull_ns`` — the paper's proposed store-queue-full counter,
* ``active_ns`` — wall-clock time the thread was running on a core,
* ``insns`` / ``stores`` — retired instruction and store counts.

Counters are plain additive records: the simulator increments them as
segments complete, and the trace layer snapshots them at epoch and interval
boundaries.
"""

from __future__ import annotations

#: Counter field names, in declaration order (used by tests and reports).
COUNTER_FIELDS = (
    "active_ns",
    "crit_ns",
    "leading_ns",
    "stall_ns",
    "sqfull_ns",
    "insns",
    "stores",
)


class CounterSet:
    """Additive bundle of one thread's (or core's) performance counters.

    Counter updates sit on the simulator's hottest path (one per completed
    segment, several per trace event, hundreds of thousands of instances),
    so the class is slotted and its arithmetic methods spell fields out.
    It is a plain class because ``@dataclass(slots=True)`` needs Python
    3.10; ``__init__``, ``__eq__`` and ``__repr__`` are the ones that
    dataclass would generate.
    """

    __slots__ = COUNTER_FIELDS

    def __init__(
        self,
        active_ns: float = 0.0,
        crit_ns: float = 0.0,
        leading_ns: float = 0.0,
        stall_ns: float = 0.0,
        sqfull_ns: float = 0.0,
        insns: int = 0,
        stores: int = 0,
    ) -> None:
        self.active_ns = active_ns
        self.crit_ns = crit_ns
        self.leading_ns = leading_ns
        self.stall_ns = stall_ns
        self.sqfull_ns = sqfull_ns
        self.insns = insns
        self.stores = stores

    def _values(self) -> tuple:
        return (
            self.active_ns,
            self.crit_ns,
            self.leading_ns,
            self.stall_ns,
            self.sqfull_ns,
            self.insns,
            self.stores,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(COUNTER_FIELDS, self._values())
        )
        return f"CounterSet({fields})"

    def copy(self) -> "CounterSet":
        """Return an independent copy."""
        return CounterSet(
            self.active_ns,
            self.crit_ns,
            self.leading_ns,
            self.stall_ns,
            self.sqfull_ns,
            self.insns,
            self.stores,
        )

    def add(self, other: "CounterSet") -> None:
        """Accumulate ``other`` into this counter set in place."""
        self.active_ns += other.active_ns
        self.crit_ns += other.crit_ns
        self.leading_ns += other.leading_ns
        self.stall_ns += other.stall_ns
        self.sqfull_ns += other.sqfull_ns
        self.insns += other.insns
        self.stores += other.stores

    def __add__(self, other: "CounterSet") -> "CounterSet":
        result = self.copy()
        result.add(other)
        return result

    def delta_since(self, snapshot: "CounterSet") -> "CounterSet":
        """Counters accumulated since ``snapshot`` was taken.

        All counters are monotonically non-decreasing, so every component of
        the result is non-negative for a genuine earlier snapshot.
        """
        return CounterSet(
            self.active_ns - snapshot.active_ns,
            self.crit_ns - snapshot.crit_ns,
            self.leading_ns - snapshot.leading_ns,
            self.stall_ns - snapshot.stall_ns,
            self.sqfull_ns - snapshot.sqfull_ns,
            self.insns - snapshot.insns,
            self.stores - snapshot.stores,
        )

    def is_zero(self) -> bool:
        """True if every counter is exactly zero."""
        return not (
            self.active_ns
            or self.crit_ns
            or self.leading_ns
            or self.stall_ns
            or self.sqfull_ns
            or self.insns
            or self.stores
        )
