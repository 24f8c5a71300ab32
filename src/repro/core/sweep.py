"""Simulate-once / predict-many: columnar frequency sweeps over epochs.

Every headline artifact — the figure error grids, the static-optimal
oracle, the energy manager's per-quantum candidate search — evaluates
predictions at *many* target frequencies from *one* base-frequency
measurement. The scalar paths re-walk the trace (or the epoch list) once
per (predictor, target) pair; this module decomposes once and evaluates
the whole sweep as array kernels:

* :class:`EpochArrays` — the columnar epoch representation: all
  (epoch, thread) counter deltas flattened into NumPy arrays, extracted
  directly from :class:`~repro.sim.trace.TraceColumns` without the
  per-event Python walk of :func:`repro.core.epochs.extract_epochs`
  (which remains the semantic reference and the fallback);
* window kernels — DEP (both CTP policies), M+CRIT and COOP evaluated
  over an epoch window for any set of target frequencies
  (:func:`sweep_predict_epochs`), the engine behind the energy manager's
  full-V/f-table quantum sweep and the serve batch path. M+CRIT and COOP
  share one phase kernel (M+CRIT is COOP with one phase), over epoch
  windows and whole traces alike;
* :class:`TraceSweep` — whole-trace sweeps matching each predictor's
  ``predict_total_ns`` semantics, sharing one decomposition (epochs,
  counter timeline, phase split) across every predictor and target, and
  folding every DEP lane it is told to expect in one CTP pass.

Bit-compatibility contract (the discipline ``CoreModel.time_batch_multi`` and
:mod:`repro.core.vectorized` established): results are **bit-identical**
to the scalar paths because the kernels perform the identical IEEE-754
operations in the identical order. Only the per-(entry, target)
multiply-add is vectorized:

    nonscaling = min(max(estimate, 0), wall)          # decompose's clamp
    predicted  = wall_minus_ns * base / target + ns   # left-to-right

Order-dependent aggregation — Algorithm 1's delta counters, the window
models' sequential counter summation, COOP's per-phase total — stays
sequential, exactly mirroring the scalar loops. Two array operations are
exact and are used: max reductions (``np.maximum.reduceat``; max never
rounds) and ``np.cumsum`` down an axis (``add.accumulate`` adds one
element at a time, in order). ``np.add.reduce`` / ``np.sum`` and
``np.add.reduceat`` stay banned for those sums: NumPy's pairwise
summation reassociates additions and would break byte identity.

Anything the kernels do not recognize (custom predictors, unknown
estimators, irregular traces) falls back to the scalar code, so results
never depend on which path ran.

Heterogeneous targets: a sweep target is either a core frequency in GHz
(the paper's axis) or a ``(core_freq_ghz, uncore_scale)`` tuple, where
the scale multiplies the non-scaling (memory/stall) time — the uncore
DVFS axis (:func:`split_target`). A plain-float target means scale 1.0.
Every kernel evaluates the one expression ``scaling * base / target +
nonscaling * uncore``; IEEE-754 makes ``x * 1.0 == x`` exactly, so the
uncore axis cannot perturb a single bit of the paper's configuration.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import PredictionError
from repro.common.units import check_frequency
from repro.arch.counters import CounterSet
from repro.core.coop import CoopPredictor, split_phases
from repro.core.crit import crit_nonscaling
from repro.core.dep import DepPredictor
from repro.core.epochs import Epoch, extract_epochs
from repro.core.leadingloads import leading_loads_nonscaling
from repro.core.mcrit import MCritPredictor, _sum_thread_deltas
from repro.core.model import NonScalingEstimator, check_predicted_list
from repro.core.stalltime import stall_time_nonscaling
from repro.core.timeline import CounterTimeline
from repro.sim.trace import EventKind, KIND_ORDER, SimulationTrace

#: Version of the prediction kernels. Bumped whenever a kernel's
#: numerical behaviour could change; participates in experiment cache
#: keys so sweep-evaluated results can never alias across kernel
#: revisions.
KERNEL_VERSION = 1

#: Base estimators with a columnar equivalent: estimator -> column name.
_COLUMN_OF: Dict[object, str] = {
    crit_nonscaling: "crit",
    stall_time_nonscaling: "stall",
    leading_loads_nonscaling: "leading",
}

_GC_START_CODE = KIND_ORDER.index(EventKind.GC_START)
_GC_END_CODE = KIND_ORDER.index(EventKind.GC_END)
_FUTEX_WAIT_CODE = KIND_ORDER.index(EventKind.FUTEX_WAIT)


def estimator_key(estimator: NonScalingEstimator) -> Optional[str]:
    """Columnar identity of ``estimator`` (None if not vectorizable).

    Recognizes the three base estimators and their ``with_burst``
    wrappers (which expose the wrapped function as ``base_estimator``).
    """
    base = getattr(estimator, "base_estimator", None)
    if base is not None:
        name = _COLUMN_OF.get(base)
        return f"{name}+burst" if name else None
    return _COLUMN_OF.get(estimator)


def vector_estimate(
    estimator: NonScalingEstimator, cols: EpochArrays
) -> np.ndarray:
    """Columnar non-scaling estimate matching ``estimator`` exactly.

    Reads the ``crit``/``leading``/``stall``/``sqfull`` columns of
    ``cols``. Raises ``KeyError`` for unrecognized estimators — callers
    gate on :func:`estimator_key` first.
    """
    base = getattr(estimator, "base_estimator", None)
    if base is not None:
        return getattr(cols, _COLUMN_OF[base]) + cols.sqfull
    return getattr(cols, _COLUMN_OF[estimator])


def ctp_total(
    epoch_meta: Iterable[Tuple[Tuple[int, ...], float, Optional[int]]],
    predicted: List[float],
    across: bool,
) -> float:
    """Sum epoch durations under the per- or across-epoch CTP policy.

    ``epoch_meta`` yields ``(tids, duration_ns, stall_tid)`` per epoch
    and ``predicted`` holds the per-(epoch, thread) predictions in the
    same flattened order. Performs the same operations in the same order
    as :meth:`repro.core.dep.DepPredictor.predict_epoch` — inherently
    sequential (Algorithm 1's delta counters carry across epochs) but
    only a handful of floats per epoch.
    """
    deltas: Dict[int, float] = {}
    total = 0.0
    cursor = 0
    for tids, duration_ns, stall_tid in epoch_meta:
        if not tids:
            total += duration_ns
            continue
        values = predicted[cursor : cursor + len(tids)]
        cursor += len(tids)
        if not across:
            total += max(values)
            continue
        effective = [a - deltas.get(tid, 0.0) for tid, a in zip(tids, values)]
        epoch_duration = max(0.0, max(effective))
        for tid, a in zip(tids, values):
            deltas[tid] = deltas.get(tid, 0.0) + (epoch_duration - a)
        if stall_tid is not None:
            deltas[stall_tid] = 0.0
        total += epoch_duration
    return total


def ctp_total_multi(
    epoch_meta: Iterable[Tuple[Tuple[int, ...], float, Optional[int]]],
    predicted: np.ndarray,
    across: bool,
) -> np.ndarray:
    """:func:`ctp_total` for every target lane at once.

    ``predicted`` has shape ``(n_entries, n_targets)``; each column is
    one target's flattened per-(epoch, thread) predictions, and lanes
    never mix, so a lane's result does not depend on which other lanes
    share the call.

    Across-epoch CTP stays a sequential epoch loop (Algorithm 1 carries
    state across epochs) in which every target advances together: per
    lane the exact scalar operations — elementwise subtract, a
    first-to-last ``np.maximum`` fold replacing ``max``, elementwise
    accumulate. Per-epoch CTP carries no state, so it is two array
    operations: ``np.maximum.reduceat`` takes each epoch's slowest
    thread (an empty epoch keeps its duration), then ``np.cumsum`` down
    the epochs adds them one at a time in epoch order, as the scalar
    ``total +=`` loop does. Either way each lane is bit-identical to a
    scalar :func:`ctp_total` run at that target. (``max`` never rounds
    and commutes for the finite, non-negative-zero values these kernels
    produce; ``add.accumulate`` does not reassociate.)
    """
    n_targets = predicted.shape[1]
    total = np.zeros(n_targets, dtype=np.float64)
    if not across:
        counts: List[int] = []
        durations: List[float] = []
        for tids, duration_ns, _ in epoch_meta:
            counts.append(len(tids))
            durations.append(duration_ns)
        if not counts:
            return total
        sizes = np.asarray(counts, dtype=np.int64)
        per_epoch = np.repeat(
            np.asarray(durations, dtype=np.float64)[:, None], n_targets, axis=1
        )
        filled = sizes > 0
        if filled.any():
            ends = np.cumsum(sizes)
            per_epoch[filled] = np.maximum.reduceat(
                predicted[: int(ends[-1])], (ends - sizes)[filled], axis=0
            )
        return np.cumsum(per_epoch, axis=0)[-1]
    zeros = np.zeros(n_targets, dtype=np.float64)
    deltas: Dict[int, np.ndarray] = {}
    cursor = 0
    for tids, duration_ns, stall_tid in epoch_meta:
        if not tids:
            total += duration_ns
            continue
        block = predicted[cursor : cursor + len(tids)]
        cursor += len(tids)
        effective = block[0] - deltas.get(tids[0], zeros)
        for tid, row in zip(tids[1:], block[1:]):
            effective = np.maximum(effective, row - deltas.get(tid, zeros))
        epoch_duration = np.maximum(0.0, effective)
        for tid, row in zip(tids, block):
            deltas[tid] = deltas.get(tid, zeros) + (epoch_duration - row)
        if stall_tid is not None:
            deltas[stall_tid] = zeros
        total += epoch_duration
    return total


class _Irregular(Exception):
    """Internal: columnar extraction found a shape the fast path cannot
    prove equivalent; fall back to the scalar walk."""


#: A sweep target: a core frequency in GHz, or ``(core_freq_ghz,
#: uncore_scale)`` with the scale multiplying non-scaling time.
Target = Union[float, Tuple[float, float]]


def split_target(target: Target) -> Tuple[float, float]:
    """``(core_freq_ghz, uncore_scale)`` of one sweep target, validated.

    Plain numbers are homogeneous targets (scale exactly 1.0); pairs
    carry an explicit uncore scale.
    """
    if isinstance(target, (tuple, list)):
        if len(target) != 2:
            raise PredictionError(
                f"target tuples are (core_freq_ghz, uncore_scale), "
                f"got {target!r}"
            )
        freq, uncore = float(target[0]), float(target[1])
        check_frequency("uncore_scale", uncore, PredictionError)
    else:
        freq, uncore = float(target), 1.0
    return check_frequency("target frequency", freq, PredictionError), uncore


def split_targets(
    targets: Sequence[Target],
) -> Tuple[List[float], Optional[List[float]]]:
    """``(freqs, uncore_scales_or_None)`` of a target list.

    The second element is ``None`` when every target is homogeneous
    (uncore scale 1.0).
    """
    freqs: List[float] = []
    uncore: List[float] = []
    for target in targets:
        f, u = split_target(target)
        freqs.append(f)
        uncore.append(u)
    if all(u == 1.0 for u in uncore):
        return freqs, None
    return freqs, uncore


class EpochArrays:
    """Columnar epoch decomposition: flattened (epoch, thread) entries.

    The five predictor-visible counter deltas of every entry live in
    flat float64 arrays (``wall`` is ``active_ns``); per-epoch structure
    (thread layout, duration, stall thread, GC flag) rides in parallel
    Python lists. Thread order within an epoch matches the scalar
    extractor's dict insertion order (the event's running set).
    """

    __slots__ = (
        "wall", "crit", "leading", "stall", "sqfull", "insns", "stores",
        "tids", "durations", "stall_tids", "during_gc", "starts", "ends",
        "openers", "_decomposed",
    )

    def __init__(self) -> None:
        self.wall = np.empty(0)
        self.crit = np.empty(0)
        self.leading = np.empty(0)
        self.stall = np.empty(0)
        self.sqfull = np.empty(0)
        self.insns = np.empty(0, dtype=np.int64)
        self.stores = np.empty(0, dtype=np.int64)
        self.tids: List[Tuple[int, ...]] = []
        self.durations: List[float] = []
        self.stall_tids: List[Optional[int]] = []
        self.during_gc: List[bool] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: Trace event index opening each epoch (its closer is the next
        #: event); ``None`` unless decomposed from trace columns.
        self.openers: Optional[np.ndarray] = None
        #: estimator key -> (scaling, nonscaling) arrays, computed once.
        self._decomposed: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_epochs(cls, epochs: Sequence[Epoch]) -> "EpochArrays":
        """Flatten scalar :class:`Epoch` records into columns."""
        arrays = cls()
        entries: List[CounterSet] = []
        for epoch in epochs:
            arrays.tids.append(tuple(epoch.thread_deltas))
            entries.extend(epoch.thread_deltas.values())
            arrays.durations.append(epoch.duration_ns)
            arrays.stall_tids.append(epoch.stall_tid)
            arrays.during_gc.append(epoch.during_gc)
            arrays.starts.append(epoch.start_ns)
            arrays.ends.append(epoch.end_ns)
        f64, i64 = np.float64, np.int64
        arrays.wall = np.array([c.active_ns for c in entries], dtype=f64)
        arrays.crit = np.array([c.crit_ns for c in entries], dtype=f64)
        arrays.leading = np.array([c.leading_ns for c in entries], dtype=f64)
        arrays.stall = np.array([c.stall_ns for c in entries], dtype=f64)
        arrays.sqfull = np.array([c.sqfull_ns for c in entries], dtype=f64)
        arrays.insns = np.array([c.insns for c in entries], dtype=i64)
        arrays.stores = np.array([c.stores for c in entries], dtype=i64)
        return arrays

    @classmethod
    def from_trace(cls, trace: SimulationTrace) -> "EpochArrays":
        """Decompose a whole trace, columnar when possible.

        Traces built by :class:`~repro.sim.trace.TraceBuilder` are
        decomposed straight from the backing arrays (no per-event Python
        walk, no ``CounterSet`` materialization). Hand-built traces, or
        any irregularity the fast path cannot prove equivalent (missing
        snapshots, unsorted rows, unbalanced GC markers), fall back to
        :func:`repro.core.epochs.extract_epochs` — which also raises the
        reference :class:`~repro.common.errors.TraceError` for invalid
        traces.
        """
        cols = trace.columns
        if cols is None or len(trace.events) != cols.n_events or cols.n_events < 2:
            return cls.from_epochs(extract_epochs(trace.events))
        try:
            return cls._from_columns(cols)
        except _Irregular:
            return cls.from_epochs(extract_epochs(trace.events))

    @classmethod
    def _from_columns(cls, cols) -> "EpochArrays":
        n = cols.n_events
        time = np.frombuffer(cols.time_ns, dtype=np.float64)
        kind = np.frombuffer(cols.kind, dtype=np.uint8)
        ev_tid = np.frombuffer(cols.tid, dtype=np.intc)
        # Every event kind is an epoch boundary; consecutive events more
        # than the coincidence tolerance apart bound one epoch.
        valid = time[1:] > time[:-1] + 1e-9
        openers = np.nonzero(valid)[0]
        closers = openers + 1
        # GC nesting depth after each event; the scalar walk clamps the
        # decrement at zero, so an unbalanced GC_END is irregular here.
        gc_delta = (kind == _GC_START_CODE).astype(np.int64)
        gc_delta -= kind == _GC_END_CODE
        depth = np.cumsum(gc_delta)
        if depth.size and int(depth.min()) < 0:
            raise _Irregular
        arrays = cls()
        arrays.openers = openers
        arrays.starts = time[openers].tolist()
        arrays.ends = time[closers].tolist()
        arrays.durations = (time[closers] - time[openers]).tolist()
        arrays.during_gc = (depth[openers] > 0).tolist()
        closer_tid = ev_tid[closers]
        is_stall = (kind[closers] == _FUTEX_WAIT_CODE) & (closer_tid >= 0)
        arrays.stall_tids = [
            int(t) if s else None
            for t, s in zip(closer_tid.tolist(), is_stall.tolist())
        ]
        # Thread layout: the opener's running set, first occurrence wins
        # (the scalar extractor's dict semantics).
        running = cols.running
        flat_tids: List[int] = []
        tids_per_epoch = arrays.tids
        for i in openers.tolist():
            t = running[i]
            if len(t) > 1:
                t = tuple(dict.fromkeys(t))
            tids_per_epoch.append(t)
            flat_tids.extend(t)
        counts = np.fromiter(
            (len(t) for t in tids_per_epoch),
            dtype=np.int64,
            count=len(tids_per_epoch),
        )
        entry_event = np.repeat(openers, counts)
        tid_arr = np.asarray(flat_tids, dtype=np.int64)
        # Snapshot row lookup: rows are packed CSR-style, ascending tid
        # within an event, so (event, tid) keys are strictly increasing
        # and binary-searchable in one vectorized pass.
        snap_lo = np.frombuffer(cols.snap_lo, dtype=np.int64)
        snap_tid = np.frombuffer(cols.snap_tid, dtype=np.intc).astype(np.int64)
        if snap_tid.size and int(snap_tid.min()) < 0:
            raise _Irregular
        stride = int(snap_tid.max()) + 1 if snap_tid.size else 1
        if tid_arr.size and int(tid_arr.max()) >= stride:
            raise _Irregular  # a running thread with no snapshot anywhere
        if tid_arr.size and int(tid_arr.min()) < 0:
            raise _Irregular
        snap_event = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(snap_lo)
        )
        keys = snap_event * stride + snap_tid
        if keys.size > 1 and not bool(np.all(np.diff(keys) > 0)):
            raise _Irregular
        open_rows = _rows_of(keys, entry_event * stride + tid_arr)
        close_rows = _rows_of(keys, (entry_event + 1) * stride + tid_arr)
        for name in ("active_ns", "crit_ns", "leading_ns", "stall_ns", "sqfull_ns"):
            column = np.frombuffer(getattr(cols, name), dtype=np.float64)
            delta = column[close_rows] - column[open_rows]
            setattr(arrays, "wall" if name == "active_ns" else name[:-3], delta)
        for name in ("insns", "stores"):
            column = np.frombuffer(getattr(cols, name), dtype=np.int64)
            setattr(arrays, name, column[close_rows] - column[open_rows])
        return arrays

    # -- views ---------------------------------------------------------

    @property
    def n_epochs(self) -> int:
        return len(self.tids)

    @property
    def n_entries(self) -> int:
        return int(self.wall.size)

    def epoch_meta(self) -> Iterable[Tuple[Tuple[int, ...], float, Optional[int]]]:
        """Per-epoch ``(tids, duration_ns, stall_tid)`` triples for
        :func:`ctp_total` (re-iterable; create per consumer)."""
        return zip(self.tids, self.durations, self.stall_tids)

    def to_epochs(self) -> List[Epoch]:
        """Materialize scalar :class:`Epoch` records (the inverse of
        :meth:`from_epochs`; equals ``extract_epochs`` on the source
        trace for :meth:`from_trace` arrays)."""
        epochs: List[Epoch] = []
        cursor = 0
        for i, tids in enumerate(self.tids):
            deltas: Dict[int, CounterSet] = {}
            for tid in tids:
                deltas[tid] = CounterSet(
                    float(self.wall[cursor]),
                    float(self.crit[cursor]),
                    float(self.leading[cursor]),
                    float(self.stall[cursor]),
                    float(self.sqfull[cursor]),
                    int(self.insns[cursor]),
                    int(self.stores[cursor]),
                )
                cursor += 1
            epochs.append(
                Epoch(
                    index=i,
                    start_ns=self.starts[i],
                    end_ns=self.ends[i],
                    thread_deltas=deltas,
                    stall_tid=self.stall_tids[i],
                    during_gc=self.during_gc[i],
                )
            )
        return epochs

    def epoch_ranges(
        self, event_lo: Sequence[int], event_hi: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Epoch ranges ``[first, last)`` of the event slices
        ``[event_lo[i], event_hi[i])``.

        An epoch belongs to a slice when both its opening and closing
        events fall inside it, which makes the range exactly the epochs
        ``extract_epochs(events[lo:hi])`` emits — except ``during_gc``,
        which the slice walk starts at depth zero even inside a
        collection. Needs a columnar decomposition (:attr:`openers`).
        """
        if self.openers is None:
            raise PredictionError("epoch ranges need a columnar decomposition")
        first = np.searchsorted(self.openers, np.asarray(event_lo, dtype=np.int64))
        last = np.searchsorted(
            self.openers, np.asarray(event_hi, dtype=np.int64) - 1
        )
        return first, np.maximum(first, last)

    def decomposed(
        self, estimator: NonScalingEstimator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(scaling, nonscaling)`` arrays under ``estimator``'s clamp.

        Cached per estimator identity, so DEP and DEP+BURST sweeps over
        the same decomposition share everything but the one clamp pass.
        Raises ``KeyError`` for estimators without a columnar identity.
        """
        key = estimator_key(estimator)
        if key is None:
            raise KeyError(estimator)
        cached = self._decomposed.get(key)
        if cached is None:
            if self.wall.size and float(self.wall.min()) < 0:
                raise PredictionError("negative wall time in epoch arrays")
            estimate = vector_estimate(estimator, self)
            nonscaling = np.minimum(np.maximum(estimate, 0.0), self.wall)
            cached = (self.wall - nonscaling, nonscaling)
            self._decomposed[key] = cached
        return cached


def _rows_of(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact-match positions of ``queries`` in sorted ``keys``."""
    rows = np.searchsorted(keys, queries)
    if rows.size:
        if int(rows.max()) >= keys.size or not bool(
            np.all(keys[rows] == queries)
        ):
            raise _Irregular  # snapshot missing for a running thread
    return rows


# ----------------------------------------------------------------------
# Window kernels (predict_epochs semantics)
# ----------------------------------------------------------------------


def dep_window_sweep(
    predictor: DepPredictor,
    arrays: EpochArrays,
    base_freq_ghz: float,
    targets: Sequence[float],
) -> List[float]:
    """DEP over an epoch window at every target, one clamp pass total."""
    predicted = dep_columns(
        arrays, predictor.estimator, base_freq_ghz, targets
    )
    totals = ctp_total_multi(
        arrays.epoch_meta(), predicted, predictor.across_epoch_ctp
    )
    return [float(value) for value in totals]


def dep_columns(
    arrays: EpochArrays,
    estimator: NonScalingEstimator,
    base_freq_ghz: float,
    targets: Sequence[Target],
) -> np.ndarray:
    """The ``(entries, targets)`` per-thread prediction matrix that
    :func:`ctp_total_multi` folds into DEP totals."""
    freqs, uncore = split_targets(targets)
    check_frequency("base frequency", base_freq_ghz, PredictionError)
    scaling, nonscaling = arrays.decomposed(estimator)
    # Per lane exactly the scalar ``predict_ns`` expression ``scaling *
    # base / target + nonscaling * uncore``, left-to-right.
    return (scaling * base_freq_ghz)[:, None] / np.asarray(
        freqs, dtype=np.float64
    )[None, :] + nonscaling[:, None] * np.asarray(
        uncore or [1.0] * len(freqs), dtype=np.float64
    )[None, :]


def dep_ranges_sweep(
    predictor: DepPredictor,
    arrays: EpochArrays,
    first: np.ndarray,
    last: np.ndarray,
    bases: Sequence[float],
    targets: Sequence[float],
) -> np.ndarray:
    """DEP over many epoch ranges of one decomposition, each at its own
    base frequency: the ``(ranges, targets)`` matrix whose row ``i`` is
    :func:`dep_window_sweep` over epochs ``first[i]:last[i]`` at
    ``bases[i]``, bit for bit (homogeneous targets only).

    One clamp pass and one prediction matrix cover every range; only
    the sequential CTP fold runs per range. An empty range gives a row
    of zeros, as the window kernel does.
    """
    freqs = np.asarray(targets, dtype=np.float64)
    first = np.asarray(first, dtype=np.int64)
    last = np.asarray(last, dtype=np.int64)
    bases = np.asarray(bases, dtype=np.float64)
    nonempty = last > first
    if nonempty.any():
        used = bases[nonempty]  # NaN propagates through min and max
        for freq in (used.min(), used.max(), *freqs.tolist()):
            check_frequency("frequency", float(freq), PredictionError)
    scaling, nonscaling = arrays.decomposed(predictor.estimator)
    # Entry offsets per epoch, then one gather of every range's entries
    # (ranges laid end to end, each with its own base frequency).
    offsets = np.zeros(arrays.n_epochs + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(
            (len(t) for t in arrays.tids), dtype=np.int64,
            count=arrays.n_epochs,
        ),
        out=offsets[1:],
    )
    entry_lo = offsets[first]
    sizes = offsets[last] - entry_lo
    bounds = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    gather = np.arange(bounds[-1], dtype=np.int64) - np.repeat(
        bounds[:-1] - entry_lo, sizes
    )
    # Per lane exactly dep_window_sweep's ``scaling * base / target +
    # nonscaling``, left-to-right.
    predicted = (scaling[gather] * np.repeat(bases, sizes))[:, None] / freqs[
        None, :
    ] + nonscaling[gather][:, None]
    across = predictor.across_epoch_ctp
    totals = np.zeros((first.size, freqs.size), dtype=np.float64)
    for i, (lo, hi) in enumerate(zip(first.tolist(), last.tolist())):
        if hi > lo:
            totals[i] = ctp_total_multi(
                zip(
                    arrays.tids[lo:hi],
                    arrays.durations[lo:hi],
                    arrays.stall_tids[lo:hi],
                ),
                predicted[bounds[i] : bounds[i + 1]],
                across,
            )
    return totals


def _phase_sweep(
    estimator: NonScalingEstimator,
    walls: np.ndarray,
    counters: Sequence[CounterSet],
    phases: Sequence[Tuple[float, int, int]],
    base_freq_ghz: float,
    targets: Sequence[Target],
) -> List[float]:
    """The M+CRIT/COOP lane kernel: slowest entry per phase, phases summed.

    Entry ``i`` is one thread's window, ``walls[i]`` long with
    ``counters[i]`` accumulated; each phase ``(duration_ns, lo, hi)``
    owns entries ``lo:hi``. The estimator runs scalar-ly per entry (any
    estimator works) under :func:`repro.core.model.decompose`'s clamp;
    each lane is ``scaling * base / target + nonscaling * uncore``,
    which is the scalar ``predict_ns`` elementwise. A phase with no
    entries keeps its measured duration. M+CRIT is the one-phase case.
    """
    freqs, uncore = split_targets(targets)
    check_frequency("base frequency", base_freq_ghz, PredictionError)
    if walls.size and float(walls.min()) < 0:
        raise PredictionError(f"negative wall time {float(walls.min())}")
    estimate = np.array([estimator(c) for c in counters], dtype=np.float64)
    nonscaling = np.minimum(np.maximum(estimate, 0.0), walls)
    scaling = walls - nonscaling
    results: List[float] = []
    for target, scale in zip(freqs, uncore or [1.0] * len(freqs)):
        values = scaling * base_freq_ghz / target + nonscaling * scale
        total = 0.0
        for duration_ns, lo, hi in phases:
            if hi == lo:
                total += duration_ns
            else:
                total += max(0.0, float(values[lo:hi].max()))
        results.append(total)
    return results


def _window_sweep(
    predictor, groups: Sequence[Sequence[Epoch]], base_freq_ghz: float,
    targets: Sequence[Target],
) -> List[float]:
    """:func:`_phase_sweep` over epoch-window phases: each thread's
    counters summed over its phase, its wall time the phase's span."""
    walls: List[float] = []
    counters: List[CounterSet] = []
    phases: List[Tuple[float, int, int]] = []
    for group in groups:
        span = group[-1].end_ns - group[0].start_ns
        summed = _sum_thread_deltas(group)
        lo = len(walls)
        walls.extend([span] * len(summed))
        counters.extend(summed.values())
        phases.append((span, lo, len(walls)))
    return _phase_sweep(
        predictor.estimator, np.array(walls, dtype=np.float64), counters,
        phases, base_freq_ghz, targets,
    )


def mcrit_window_sweep(
    predictor: MCritPredictor,
    epochs: Sequence[Epoch],
    base_freq_ghz: float,
    targets: Sequence[float],
) -> List[float]:
    """M+CRIT window semantics at every target from one summation."""
    groups = [epochs] if epochs else []
    return _window_sweep(predictor, groups, base_freq_ghz, targets)


def coop_window_sweep(
    predictor: CoopPredictor,
    epochs: Sequence[Epoch],
    base_freq_ghz: float,
    targets: Sequence[float],
) -> List[float]:
    """COOP window semantics (GC-run phase groups) at every target."""
    groups: List[List[Epoch]] = []
    for epoch in epochs:
        if not groups or epoch.during_gc != groups[-1][0].during_gc:
            groups.append([])
        groups[-1].append(epoch)
    return _window_sweep(predictor, groups, base_freq_ghz, targets)


def predict_target(predict, target: Target) -> float:
    """One scalar prediction at a sweep target: ``predict(freq)``, with
    ``uncore_scale=`` only for a heterogeneous target. The
    :class:`~repro.core.predictors.Predictor` protocol (and custom
    predictors following it) takes no uncore keyword."""
    freq, uncore = split_target(target)
    if uncore == 1.0:
        return predict(freq)
    return predict(freq, uncore_scale=uncore)


def sweep_predict_epochs(
    predictor,
    epochs: Union[Sequence[Epoch], EpochArrays],
    base_freq_ghz: float,
    targets: Sequence[float],
) -> List[float]:
    """``[predictor.predict_epochs(epochs, base, t) for t in targets]``,
    evaluated through the sweep kernels when the predictor has one.

    Bit-identical to the scalar loop for the six registered predictors;
    anything unrecognized (custom predictor types, custom DEP
    estimators) runs the scalar loop itself, so results never depend on
    dispatch. A result that is not finite raises, as on the scalar path.
    """
    targets = list(targets)
    if type(predictor) is DepPredictor and estimator_key(predictor.estimator):
        arrays = (
            epochs
            if isinstance(epochs, EpochArrays)
            else EpochArrays.from_epochs(epochs)
        )
        return check_predicted_list(
            dep_window_sweep(predictor, arrays, base_freq_ghz, targets)
        )
    if isinstance(epochs, EpochArrays):
        epochs = epochs.to_epochs()
    if type(predictor) is MCritPredictor:
        return check_predicted_list(
            mcrit_window_sweep(predictor, epochs, base_freq_ghz, targets)
        )
    if type(predictor) is CoopPredictor:
        return check_predicted_list(
            coop_window_sweep(predictor, epochs, base_freq_ghz, targets)
        )
    predict = partial(predictor.predict_epochs, epochs, base_freq_ghz)
    return check_predicted_list(
        [predict_target(predict, target) for target in targets]
    )


# ----------------------------------------------------------------------
# Whole-trace sweeps (predict_total_ns semantics)
# ----------------------------------------------------------------------


#: Predictor types whose whole-trace sweep is fully determined by
#: (type, estimator key, CTP policy, base): the lane memo's domain.
_MEMOIZED = (DepPredictor, MCritPredictor, CoopPredictor)


def _identity(predictor, key: str, base: float) -> tuple:
    """A memoized predictor's lane-memo identity."""
    return (
        type(predictor),
        key,
        getattr(predictor, "across_epoch_ctp", None),
        base,
    )


class TraceSweep:
    """One trace's decomposition, shared across predictors and targets.

    Each ingredient — the columnar epoch arrays (DEP), the counter
    timeline and per-thread lifetimes (M+CRIT), the GC phase split and
    per-(phase, thread) windows (COOP) — is gathered lazily, exactly
    once, and reused by every :meth:`predict` call. Gathering follows
    the scalar models' own sequence of operations, so predictions are
    bit-identical to ``predictor.predict_total_ns``.

    ``grid`` lists ``(DepPredictor, targets)`` lanes the owner will ask
    for. DEP's across-epoch fold walks every epoch once per call however
    many lanes it carries, so the first DEP miss folds its own lanes and
    every grid lane not yet answered with the same CTP policy (at the
    trace's base frequency) in one pass, and later questions about those
    lanes come from the memo.
    """

    def __init__(
        self,
        trace: SimulationTrace,
        grid: Sequence[Tuple[DepPredictor, Sequence[Target]]] = (),
    ) -> None:
        self.trace = trace
        #: DEP lanes the owner expects to ask for: ``(predictor, {lane:
        #: target})`` pairs, folded in with the first DEP miss of the
        #: same CTP policy at the trace's base frequency.
        self._grid: List[
            Tuple[DepPredictor, Dict[Tuple[float, float], Target]]
        ] = []
        for predictor, targets in grid:
            if type(predictor) is not DepPredictor or not estimator_key(
                predictor.estimator
            ):
                raise PredictionError(
                    f"a sweep grid takes DEP predictors with a columnar "
                    f"estimator, got {predictor!r}"
                )
            self._grid.append(
                (predictor, {split_target(t): t for t in targets})
            )
        self._arrays: Optional[EpochArrays] = None
        self._timeline: Optional[CounterTimeline] = None
        self._mcrit_gathered: Optional[
            Tuple[np.ndarray, List[CounterSet]]
        ] = None
        self._coop_gathered: Optional[
            Tuple[List[Tuple[float, int, int]], np.ndarray, List[CounterSet]]
        ] = None
        #: Lane memo: predictor identity -> {(freq, uncore): prediction}.
        self._lanes: Dict[tuple, Dict[Tuple[float, float], float]] = {}

    @property
    def arrays(self) -> EpochArrays:
        """The columnar epoch decomposition (built on first use)."""
        if self._arrays is None:
            self._arrays = EpochArrays.from_trace(self.trace)
        return self._arrays

    @property
    def timeline(self) -> CounterTimeline:
        if self._timeline is None:
            self._timeline = CounterTimeline(self.trace)
        return self._timeline

    def predict(
        self,
        predictor,
        targets: Sequence[float],
        base_freq_ghz: Optional[float] = None,
    ) -> List[float]:
        """``[predictor.predict_total_ns(trace, t, base) for t in targets]``
        from one shared decomposition (bit-identical).

        Each (predictor identity, target) lane is evaluated at most once
        per sweep: lanes already answered come from the memo, the rest
        are de-duplicated and evaluated in one kernel call (for DEP, the
        one fold that also answers the grid). Every kernel
        lane is independent of the others in its call, so a memoized
        value equals a fresh evaluation bit for bit. Only the exact
        registered predictor types with a columnar estimator are
        memoized; anything else is evaluated on every call. A result
        that is not finite raises, as on the scalar path.
        """
        base = (
            base_freq_ghz
            if base_freq_ghz is not None
            else self.trace.base_freq_ghz
        )
        targets = list(targets)
        key = (
            estimator_key(predictor.estimator)
            if type(predictor) in _MEMOIZED
            else None
        )
        if key is None or not targets:
            return check_predicted_list(
                self._evaluate(predictor, base, targets)
            )
        identity = _identity(predictor, key, base)
        lanes = self._lanes.setdefault(identity, {})
        keys = [split_target(target) for target in targets]
        pending: Dict[Tuple[float, float], Target] = {}
        for lane, target in zip(keys, targets):
            if lane not in lanes:
                pending.setdefault(lane, target)
        if pending and type(predictor) is DepPredictor:
            self._dep_fold(predictor, base, identity, pending)
        elif pending:
            values = self._evaluate(predictor, base, list(pending.values()))
            lanes.update(zip(pending, values))
        return check_predicted_list([lanes[lane] for lane in keys])

    def _dep_fold(
        self,
        predictor: DepPredictor,
        base: float,
        identity: tuple,
        pending: Dict[Tuple[float, float], Target],
    ) -> None:
        """Memoize ``pending`` and every unanswered grid lane that shares
        the predictor's CTP policy and base, from one
        :func:`ctp_total_multi` pass.

        Each estimator's columns are :func:`dep_window_sweep`'s, and the
        fold never mixes lanes, so every lane equals a solo sweep bit
        for bit. Values are memoized unchecked: a non-finite lane raises
        only when it is asked for.
        """
        across = predictor.across_epoch_ctp
        folds = {identity: (predictor, pending)}
        if base == self.trace.base_freq_ghz:
            for grid_predictor, grid_lanes in self._grid:
                if grid_predictor.across_epoch_ctp != across:
                    continue
                key = estimator_key(grid_predictor.estimator)
                grid_identity = _identity(grid_predictor, key, base)
                answered = self._lanes.get(grid_identity, {})
                todo = folds.setdefault(grid_identity, (grid_predictor, {}))[1]
                for lane, target in grid_lanes.items():
                    if lane not in answered:
                        todo.setdefault(lane, target)
        # An overflow shows as a non-finite lane, which raises when asked.
        with np.errstate(over="ignore", invalid="ignore"):
            columns = [
                dep_columns(self.arrays, p.estimator, base, list(todo.values()))
                for p, todo in folds.values()
                if todo
            ]
            totals = ctp_total_multi(
                self.arrays.epoch_meta(), np.hstack(columns), across
            ).tolist()
        cursor = 0
        for fold_identity, (_, todo) in folds.items():
            self._lanes.setdefault(fold_identity, {}).update(
                zip(todo, totals[cursor : cursor + len(todo)])
            )
            cursor += len(todo)

    def _evaluate(
        self, predictor, base: float, targets: List[Target]
    ) -> List[float]:
        if type(predictor) is DepPredictor and estimator_key(
            predictor.estimator
        ):
            return dep_window_sweep(predictor, self.arrays, base, targets)
        if type(predictor) is MCritPredictor:
            return self._mcrit_sweep(predictor, base, targets)
        if type(predictor) is CoopPredictor:
            return self._coop_sweep(predictor, base, targets)
        predict = partial(
            predictor.predict_total_ns, self.trace, base_freq_ghz=base
        )
        return [predict_target(predict, target) for target in targets]

    # -- M+CRIT --------------------------------------------------------

    def _mcrit_gather(self) -> Tuple[np.ndarray, List[CounterSet]]:
        gathered = self._mcrit_gathered
        if gathered is None:
            app_tids = self.trace.app_tids()
            if not app_tids:
                raise PredictionError("trace has no application threads")
            timeline = self.timeline
            walls = np.array(
                [timeline.lifetime_ns(tid) for tid in app_tids],
                dtype=np.float64,
            )
            counters = [timeline.final_counters(tid) for tid in app_tids]
            gathered = self._mcrit_gathered = (walls, counters)
        return gathered

    def _mcrit_sweep(
        self, predictor: MCritPredictor, base: float, targets: List[Target]
    ) -> List[float]:
        walls, counters = self._mcrit_gather()
        return _phase_sweep(
            predictor.estimator, walls, counters, [(0.0, 0, walls.size)],
            base, targets,
        )

    # -- COOP ----------------------------------------------------------

    def _coop_gather(
        self,
    ) -> Tuple[List[Tuple[float, int, int]], np.ndarray, List[CounterSet]]:
        """Per-phase entry windows, flattened.

        Returns ``(phases, walls, counters)`` where ``phases`` holds one
        ``(phase_duration_ns, lo, hi)`` per phase (``lo:hi`` slicing the
        flat entry arrays) and each entry is one live thread clipped to
        the phase, in the scalar model's thread order.
        """
        gathered = self._coop_gathered
        if gathered is None:
            trace = self.trace
            timeline = self.timeline
            phases = split_phases(trace)
            app_tids = trace.app_tids()
            gc_tids = [
                tid
                for tid, info in trace.threads.items()
                if info.kind.value == "gc"
            ]
            if not app_tids:
                raise PredictionError("trace has no application threads")
            metas: List[Tuple[float, int, int]] = []
            walls: List[float] = []
            counters: List[CounterSet] = []
            for phase in phases:
                tids = app_tids if phase.kind == "app" else gc_tids
                lo = len(walls)
                for tid in tids:
                    start = max(phase.start_ns, timeline.spawn_time(tid))
                    end = min(phase.end_ns, timeline.exit_time(tid))
                    if end <= start:
                        continue
                    walls.append(end - start)
                    counters.append(timeline.delta(tid, start, end))
                metas.append((phase.duration_ns, lo, len(walls)))
            gathered = self._coop_gathered = (
                metas,
                np.array(walls, dtype=np.float64),
                counters,
            )
        return gathered

    def _coop_sweep(
        self, predictor: CoopPredictor, base: float, targets: List[Target]
    ) -> List[float]:
        phases, walls, counters = self._coop_gather()
        return _phase_sweep(
            predictor.estimator, walls, counters, phases, base, targets
        )
