"""Trace records: what a kernel module + performance counters would observe.

The predictors must work from observable data only. A trace therefore
contains:

* one :class:`TraceEvent` per thread-visible transition — futex waits and
  wakes, spawns and exits, scheduler preemptions and dispatches, GC phase
  markers, frequency changes, and interval (quantum) boundaries (stored
  as :class:`TraceColumns`; :class:`TraceEvents` creates the objects on
  first read);
* with each event, counter snapshots for the threads running around it
  (what reading the per-core counters at that instant would return);
* per-quantum :class:`~repro.sim.intervals.IntervalRecord` entries.

Trace events carry *cumulative* counters; consumers diff snapshots between
boundaries to obtain per-epoch or per-interval deltas.
"""

from __future__ import annotations

import enum
import operator
from array import array
from collections.abc import Mapping as AbcMapping
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import TraceError
from repro.arch.counters import CounterSet
from repro.osmodel.threadmodel import ThreadKind
from repro.sim.intervals import IntervalRecord


class EventKind(enum.Enum):
    """Kinds of observable trace events."""

    SPAWN = "spawn"
    EXIT = "exit"
    FUTEX_WAIT = "futex_wait"
    FUTEX_WAKE = "futex_wake"
    PREEMPT = "preempt"
    DISPATCH = "dispatch"
    GC_START = "gc_start"
    GC_END = "gc_end"
    FREQ_CHANGE = "freq_change"
    INTERVAL = "interval"

    @property
    def is_epoch_boundary(self) -> bool:
        """True for events that begin a new synchronization epoch.

        Section III.B: an epoch starts whenever a thread is scheduled out
        and put to sleep, or a sleeping/new thread is scheduled in. We also
        cut epochs at explicit window markers (intervals, frequency
        changes) so predictions can be windowed.
        """
        return self in (
            EventKind.SPAWN,
            EventKind.EXIT,
            EventKind.FUTEX_WAIT,
            EventKind.FUTEX_WAKE,
            EventKind.PREEMPT,
            EventKind.DISPATCH,
            EventKind.GC_START,
            EventKind.GC_END,
            EventKind.FREQ_CHANGE,
            EventKind.INTERVAL,
        )


#: Declaration-order list of event kinds; ``TraceColumns.kind`` stores the
#: index into this list as a one-byte code.
KIND_ORDER: Tuple[EventKind, ...] = tuple(EventKind)
_KIND_CODE: Dict[EventKind, int] = {kind: i for i, kind in enumerate(KIND_ORDER)}


class TraceColumns:
    """Columnar storage behind a trace's event list.

    One row per event in the scalar columns; counter snapshots are packed
    CSR-style: event ``i``'s snapshot rows occupy ``snap_lo[i]:snap_lo[i+1]``
    of ``snap_tid`` and the seven per-field counter columns (ascending tid
    within an event). Float fields use ``array('d')`` and the integer
    counters ``array('q')``, so values round-trip bit-exactly and keep their
    Python types (float vs int) — serialization output is unchanged.
    """

    __slots__ = (
        "time_ns", "tid", "kind", "freq_ghz", "detail", "running",
        "snap_lo", "snap_tid",
        "active_ns", "crit_ns", "leading_ns", "stall_ns", "sqfull_ns",
        "insns", "stores",
    )

    def __init__(self) -> None:
        self.time_ns = array("d")
        self.tid = array("i")
        self.kind = array("B")
        self.freq_ghz = array("d")
        self.detail: List[str] = []
        self.running: List[Tuple[int, ...]] = []
        self.snap_lo = array("q", [0])
        self.snap_tid = array("i")
        self.active_ns = array("d")
        self.crit_ns = array("d")
        self.leading_ns = array("d")
        self.stall_ns = array("d")
        self.sqfull_ns = array("d")
        self.insns = array("q")
        self.stores = array("q")

    @property
    def n_events(self) -> int:
        return len(self.time_ns)

    def counters_at_row(self, row: int) -> CounterSet:
        """Materialize the snapshot stored at counter row ``row``."""
        return CounterSet(
            self.active_ns[row],
            self.crit_ns[row],
            self.leading_ns[row],
            self.stall_ns[row],
            self.sqfull_ns[row],
            self.insns[row],
            self.stores[row],
        )

    def event_at(self, i: int) -> "TraceEvent":
        """Materialize event ``i`` (its snapshots stay a lazy view)."""
        snap_lo = self.snap_lo
        return TraceEvent(
            self.time_ns[i],
            self.tid[i],
            KIND_ORDER[self.kind[i]],
            self.freq_ghz[i],
            self.running[i],
            SnapshotView(self, snap_lo[i], snap_lo[i + 1]),
            self.detail[i],
        )


class TraceEvents(AbcSequence):
    """Read-only ``Sequence[TraceEvent]`` over a trace's columns.

    ``len()`` reads the columns; an event object is created on its first
    index, slice or iteration and kept, so each is built at most once.
    The view follows its columns: while the simulator appends, ``len``
    grows and iteration reaches the new events, as a list's would.
    Slices are lists; ``==`` compares element-wise with lists and other
    views. Pickling keeps the columns only.
    """

    __slots__ = ("columns", "_made")

    def __init__(self, columns: TraceColumns) -> None:
        self.columns = columns
        self._made: List[Optional[TraceEvent]] = []

    def __len__(self) -> int:
        return len(self.columns.time_ns)

    def _at(self, i: int) -> "TraceEvent":
        made = self._made
        if i >= len(made):
            made.extend([None] * (len(self.columns.time_ns) - len(made)))
        event = made[i]
        if event is None:
            event = made[i] = self.columns.event_at(i)
        return event

    def __getitem__(self, index):
        n = len(self.columns.time_ns)
        if isinstance(index, slice):
            return [self._at(i) for i in range(*index.indices(n))]
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace event index out of range")
        return self._at(i)

    def __iter__(self) -> Iterator["TraceEvent"]:
        i = 0
        while i < len(self.columns.time_ns):
            yield self._at(i)
            i += 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, TraceEvents)):
            return NotImplemented
        return len(self) == len(other) and all(
            a is b or a == b for a, b in zip(self, other)
        )

    __hash__ = None  # like list

    def __reduce__(self):
        return TraceEvents, (self.columns,)

    def __repr__(self) -> str:
        return repr(list(self))


class SnapshotView(AbcMapping):
    """Lazy ``Mapping[int, CounterSet]`` over one event's snapshot rows.

    Behaves exactly like the eager dict the simulator used to build —
    iteration in ascending-tid order, ``==`` against plain dicts — but
    materializes :class:`CounterSet` objects only on access (cached).
    """

    __slots__ = ("_cols", "_lo", "_hi", "_cache")

    def __init__(self, cols: TraceColumns, lo: int, hi: int) -> None:
        self._cols = cols
        self._lo = lo
        self._hi = hi
        self._cache: Optional[Dict[int, CounterSet]] = None

    def row_of(self, tid: int) -> int:
        """Absolute counter-row index of ``tid``'s snapshot (KeyError if absent)."""
        snap_tid = self._cols.snap_tid
        for row in range(self._lo, self._hi):
            if snap_tid[row] == tid:
                return row
        raise KeyError(tid)

    def __getitem__(self, tid: int) -> CounterSet:
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        found = cache.get(tid)
        if found is None:
            found = cache[tid] = self._cols.counters_at_row(self.row_of(tid))
        return found

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[int]:
        snap_tid = self._cols.snap_tid
        for row in range(self._lo, self._hi):
            yield snap_tid[row]

    def __contains__(self, tid: object) -> bool:
        snap_tid = self._cols.snap_tid
        for row in range(self._lo, self._hi):
            if snap_tid[row] == tid:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AbcMapping):
            return dict(self) == dict(other)
        return NotImplemented

    __hash__ = None  # mappings are unhashable, like dict

    def delta(self, tid: int, older: "SnapshotView") -> CounterSet:
        """``self[tid].delta_since(older[tid])`` without the intermediates."""
        cols = self._cols
        row = self.row_of(tid)
        old_row = older.row_of(tid)
        old_cols = older._cols
        return CounterSet(
            cols.active_ns[row] - old_cols.active_ns[old_row],
            cols.crit_ns[row] - old_cols.crit_ns[old_row],
            cols.leading_ns[row] - old_cols.leading_ns[old_row],
            cols.stall_ns[row] - old_cols.stall_ns[old_row],
            cols.sqfull_ns[row] - old_cols.sqfull_ns[old_row],
            cols.insns[row] - old_cols.insns[old_row],
            cols.stores[row] - old_cols.stores[old_row],
        )

    def serialize_rows(self) -> Dict[str, list]:
        """The ``{str(tid): [COUNTER_FIELDS...]}`` dict serialization writes."""
        cols = self._cols
        return {
            str(cols.snap_tid[row]): [
                cols.active_ns[row],
                cols.crit_ns[row],
                cols.leading_ns[row],
                cols.stall_ns[row],
                cols.sqfull_ns[row],
                cols.insns[row],
                cols.stores[row],
            ]
            for row in range(self._lo, self._hi)
        }

    def __repr__(self) -> str:
        return f"SnapshotView({dict(self)!r})"


@dataclass(frozen=True)
class TraceEvent:
    """One observable transition, with counter snapshots around it."""

    time_ns: float
    #: The thread the event is about (-1 for global events).
    tid: int
    kind: EventKind
    #: Chip frequency in effect at (just after) the event.
    freq_ghz: float
    #: Tids on cores immediately after the event was applied.
    running_after: Tuple[int, ...]
    #: Cumulative counters for threads running around the event (the union
    #: of ``running_after`` and the event's own tid).
    snapshots: Mapping[int, CounterSet]
    #: Free-form detail (futex key, GC kind, ...), for diagnostics.
    detail: str = ""


@dataclass(frozen=True)
class ThreadInfo:
    """Identity of one simulated thread."""

    tid: int
    name: str
    kind: ThreadKind


class TraceBuilder:
    """Append-only constructor of a columnar trace.

    Owns a :class:`TraceColumns` store, attached to the trace as
    ``trace.columns``, and sets ``trace.events`` to the
    :class:`TraceEvents` view over it: every consumer of the event
    sequence keeps working, columnar fast paths read the arrays
    directly, and an event no one reads is never built.
    """

    __slots__ = ("columns",)

    def __init__(self, trace: "SimulationTrace") -> None:
        self.columns = trace.columns = TraceColumns()
        trace.events = TraceEvents(self.columns)

    def append_event(
        self,
        time_ns: float,
        tid: int,
        kind: EventKind,
        freq_ghz: float,
        running: Tuple[int, ...],
        snapshots,  # iterable of (tid, CounterSet), ascending tid
        detail: str = "",
    ) -> None:
        cols = self.columns
        cols.time_ns.append(time_ns)
        cols.tid.append(tid)
        cols.kind.append(_KIND_CODE[kind])
        cols.freq_ghz.append(freq_ghz)
        cols.detail.append(detail)
        cols.running.append(running)
        snap_tid = cols.snap_tid
        active = cols.active_ns
        crit = cols.crit_ns
        leading = cols.leading_ns
        stall = cols.stall_ns
        sqfull = cols.sqfull_ns
        insns = cols.insns
        stores = cols.stores
        for t, cs in snapshots:
            snap_tid.append(t)
            active.append(cs.active_ns)
            crit.append(cs.crit_ns)
            leading.append(cs.leading_ns)
            stall.append(cs.stall_ns)
            sqfull.append(cs.sqfull_ns)
            insns.append(cs.insns)
            stores.append(cs.stores)
        cols.snap_lo.append(len(snap_tid))


@dataclass
class SimulationTrace:
    """Everything observable from one simulation run."""

    program_name: str
    #: A :class:`TraceEvents` view for traces built by a
    #: :class:`TraceBuilder` (simulated or decoded); a plain list for
    #: hand-built traces.
    events: Sequence[TraceEvent] = field(default_factory=list)
    threads: Dict[int, ThreadInfo] = field(default_factory=dict)
    intervals: List[IntervalRecord] = field(default_factory=list)
    #: Columnar backing store when the trace was produced by a
    #: :class:`TraceBuilder`; None for hand-built traces. Excluded from
    #: equality so a round-tripped trace compares equal to the original.
    columns: Optional[TraceColumns] = field(
        default=None, repr=False, compare=False
    )
    total_ns: float = 0.0
    #: The (initial) frequency of the run; fixed-frequency runs never change it.
    base_freq_ghz: float = 0.0
    #: Number of GC cycles observed (minor + full).
    gc_cycles: int = 0
    #: Total wall time with a GC cycle in progress.
    gc_time_ns: float = 0.0

    def app_tids(self) -> List[int]:
        """Tids of application threads, ascending."""
        return sorted(
            tid
            for tid, info in self.threads.items()
            if info.kind is ThreadKind.APPLICATION
        )

    def final_counters(self) -> Dict[int, CounterSet]:
        """Last observed cumulative counters per thread.

        Uses each thread's most recent snapshot; every thread's EXIT event
        snapshots it, so completed runs report complete totals.
        """
        cols = self.columns
        if cols is not None and len(self.events) == cols.n_events:
            last_row: Dict[int, int] = {}
            for row, tid in enumerate(cols.snap_tid):
                last_row[tid] = row
            return {
                tid: cols.counters_at_row(row) for tid, row in last_row.items()
            }
        latest: Dict[int, CounterSet] = {}
        for event in self.events:
            for tid, counters in event.snapshots.items():
                latest[tid] = counters
        return latest

    def validate(self) -> None:
        """Check trace invariants; raise :class:`TraceError` on violation."""
        prev = -1.0
        for event in self.events:
            if event.time_ns < prev:
                raise TraceError(
                    f"events out of order at {event.time_ns} (prev {prev})"
                )
            prev = event.time_ns
            for tid in event.running_after:
                if tid not in event.snapshots:
                    raise TraceError(
                        f"event {event.kind} at {event.time_ns}: running thread "
                        f"{tid} lacks a counter snapshot"
                    )
            if event.tid >= 0 and event.tid not in self.threads:
                raise TraceError(f"event references unknown tid {event.tid}")
