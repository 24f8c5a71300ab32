"""Trace serialization: one columnar codec for archives and both caches.

Ground-truth simulations are the expensive part of any study built on this
library; persisting their traces lets prediction and analysis run offline
and lets results be archived alongside a paper. :func:`encode_trace` turns
a trace into a JSON document of scalars, the thread table and *columns*:
the :class:`~repro.sim.trace.TraceColumns` arrays the simulator already
builds (event times, tids, kind codes, frequencies, CSR-packed counter
snapshots) plus CSR offsets for each event's running set and for the
intervals' per-thread counters. Every column is base64 of the
little-endian bytes of an ``array('d'|'q'|'i'|'B')``, so values round-trip
bit-exactly and decoding is ``frombytes``, not parsing one JSON number at
a time. :func:`decode_trace` is the only decoder; it rebuilds a columnar
trace (``trace.columns`` set, ``trace.events`` the lazy
:class:`~repro.sim.trace.TraceEvents` view over it) so the columnar fast
paths apply to loaded traces as to fresh ones, and decoding builds no
event object. Hand-built traces without columns are packed
through a :class:`~repro.sim.trace.TraceBuilder` first.

The same document is the value the experiment result cache
(:mod:`repro.experiments.cache`) and the fleet profile store
(:mod:`repro.fleet.profile_cache`) embed, and what :func:`save_trace`
writes (gzip-compressed when the filename ends in ``.gz``).

Version field ``FORMAT_VERSION`` guards against silent schema drift — the
decoder refuses documents written by an incompatible version — and any
structural defect (bad base64, a column of the wrong length, CSR offsets
that are not monotone from 0 to the row count, an unknown event kind, a
short ``detail`` list) raises :class:`~repro.common.errors.TraceError`.

:func:`trace_to_dict` is not a storage format: it is the canonical
row-per-event view that differential tests and QA invariants compare and
hash.
"""

from __future__ import annotations

import base64
import binascii
import gzip
import json
import operator
import sys
import zlib
from array import array
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.errors import TraceError
from repro.arch.counters import COUNTER_FIELDS, CounterSet
from repro.osmodel.threadmodel import ThreadKind
from repro.sim.intervals import IntervalRecord
from repro.sim.trace import (
    KIND_ORDER,
    SimulationTrace,
    SnapshotView,
    ThreadInfo,
    TraceBuilder,
    TraceColumns,
    TraceEvents,
)

FORMAT_VERSION = 2

_PathLike = Union[str, Path]

#: Per-event scalar columns (attribute of :class:`TraceColumns`, typecode).
_EVENT_COLUMNS = (
    ("time_ns", "d"), ("tid", "i"), ("kind", "B"), ("freq_ghz", "d"),
)
#: Counter columns, in ``COUNTER_FIELDS`` order.
_COUNTER_COLUMNS = tuple(zip(COUNTER_FIELDS, "dddddqq"))
#: Per-interval scalar columns (attribute of :class:`IntervalRecord`).
_INTERVAL_COLUMNS = (
    ("index", "q"), ("start_ns", "d"), ("end_ns", "d"), ("freq_ghz", "d"),
    ("event_lo", "q"), ("event_hi", "q"), ("transition_ns", "d"),
)

#: Columns are little-endian on disk whatever the host's byte order.
_SWAP = sys.byteorder == "big"


def _counters_to_list(counters: CounterSet) -> list:
    return [getattr(counters, name) for name in COUNTER_FIELDS]


def trace_to_dict(trace: SimulationTrace) -> Dict:
    """The canonical row-per-event view of a trace (compare and hash it)."""
    return {
        "format_version": FORMAT_VERSION,
        "program_name": trace.program_name,
        "total_ns": trace.total_ns,
        "base_freq_ghz": trace.base_freq_ghz,
        "gc_cycles": trace.gc_cycles,
        "gc_time_ns": trace.gc_time_ns,
        "counter_fields": list(COUNTER_FIELDS),
        "threads": [
            {"tid": info.tid, "name": info.name, "kind": info.kind.value}
            for info in trace.threads.values()
        ],
        "events": [
            {
                "t": event.time_ns,
                "tid": event.tid,
                "k": event.kind.value,
                "f": event.freq_ghz,
                "r": list(event.running_after),
                # Columnar traces render snapshots straight from the
                # backing arrays; values are identical either way.
                "s": event.snapshots.serialize_rows()
                if type(event.snapshots) is SnapshotView
                else {
                    str(tid): _counters_to_list(counters)
                    for tid, counters in event.snapshots.items()
                },
                "d": event.detail,
            }
            for event in trace.events
        ],
        "intervals": [
            {
                "i": record.index,
                "a": record.start_ns,
                "b": record.end_ns,
                "f": record.freq_ghz,
                "p": {
                    str(tid): _counters_to_list(counters)
                    for tid, counters in record.per_thread.items()
                },
                "lo": record.event_lo,
                "hi": record.event_hi,
                "x": record.transition_ns,
            }
            for record in trace.intervals
        ],
    }


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------


def _pack(values: array) -> str:
    if _SWAP:
        values = array(values.typecode, values)
        values.byteswap()
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpack(
    doc: Dict[str, Any], name: str, typecode: str, count: Optional[int] = None
) -> array:
    """Column ``name`` of ``doc``; ``count`` rows when given."""
    values = array(typecode)
    try:
        raw = base64.b64decode(doc[name], validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise TraceError(f"column {name!r} is not valid base64") from exc
    size = values.itemsize
    if len(raw) % size or (count is not None and len(raw) != count * size):
        raise TraceError(f"column {name!r} has the wrong length ({len(raw)} bytes)")
    values.frombytes(raw)
    if _SWAP:
        values.byteswap()
    return values


def _csr(doc: Dict[str, Any], offsets: str, tids: str, count: int) -> tuple:
    """(offsets, tids) of one CSR block over ``count`` groups; the offsets
    must run monotonically from 0 to the number of tids."""
    lo = _unpack(doc, offsets, "q", count + 1)
    tid = _unpack(doc, tids, "i")
    if (
        lo[0] != 0
        or lo[-1] != len(tid)
        or any(map(operator.gt, lo, islice(lo, 1, None)))
    ):
        raise TraceError(
            f"offsets {offsets!r} do not run monotonically from 0 to {len(tid)}"
        )
    return lo, tid


def _columns_of(trace: SimulationTrace) -> TraceColumns:
    """The trace's columns, packing a hand-built event list first."""
    cols = trace.columns
    if cols is not None and cols.n_events == len(trace.events):
        return cols
    builder = TraceBuilder(SimulationTrace(trace.program_name))
    for event in trace.events:
        builder.append_event(
            event.time_ns,
            event.tid,
            event.kind,
            event.freq_ghz,
            tuple(event.running_after),
            sorted(event.snapshots.items()),
            event.detail,
        )
    return builder.columns


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------


def encode_trace(trace: SimulationTrace) -> Dict[str, Any]:
    """``trace`` as a columnar JSON document (see the module docstring)."""
    cols = _columns_of(trace)
    running_lo = array("q", [0])
    running_tid = array("i")
    for tids in cols.running:
        running_tid.extend(tids)
        running_lo.append(len(running_tid))
    events: Dict[str, Any] = {"n": cols.n_events}
    for name, _ in _EVENT_COLUMNS + _COUNTER_COLUMNS:
        events[name] = _pack(getattr(cols, name))
    events["running_lo"] = _pack(running_lo)
    events["running_tid"] = _pack(running_tid)
    events["snap_lo"] = _pack(cols.snap_lo)
    events["snap_tid"] = _pack(cols.snap_tid)
    events["detail"] = list(cols.detail)

    records = trace.intervals
    intervals: Dict[str, Any] = {"n": len(records)}
    for name, typecode in _INTERVAL_COLUMNS:
        intervals[name] = _pack(
            array(typecode, [getattr(record, name) for record in records])
        )
    thread_lo = array("q", [0])
    thread_tid = array("i")
    counters = [array(typecode) for _, typecode in _COUNTER_COLUMNS]
    for record in records:
        for tid, values in record.per_thread.items():
            thread_tid.append(tid)
            for column, value in zip(counters, _counters_to_list(values)):
                column.append(value)
        thread_lo.append(len(thread_tid))
    intervals["thread_lo"] = _pack(thread_lo)
    intervals["thread_tid"] = _pack(thread_tid)
    for (name, _), column in zip(_COUNTER_COLUMNS, counters):
        intervals[name] = _pack(column)

    return {
        "format_version": FORMAT_VERSION,
        "program_name": trace.program_name,
        "total_ns": trace.total_ns,
        "base_freq_ghz": trace.base_freq_ghz,
        "gc_cycles": trace.gc_cycles,
        "gc_time_ns": trace.gc_time_ns,
        "counter_fields": list(COUNTER_FIELDS),
        "threads": [
            [info.tid, info.name, info.kind.value]
            for info in trace.threads.values()
        ],
        "events": events,
        "intervals": intervals,
    }


def decode_trace(payload: Any) -> SimulationTrace:
    """Rebuild a trace from :func:`encode_trace` output.

    Raises :class:`~repro.common.errors.TraceError` for a foreign
    version or any malformed document; never returns a partial trace.
    """
    if not isinstance(payload, dict):
        raise TraceError("trace document is not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"trace format version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        return _decode(payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise TraceError(f"malformed trace document: {exc!r}") from exc


def _decode(payload: Dict[str, Any]) -> SimulationTrace:
    if payload["counter_fields"] != list(COUNTER_FIELDS):
        raise TraceError(
            f"counter fields {payload['counter_fields']!r}, expected "
            f"{list(COUNTER_FIELDS)}"
        )
    trace = SimulationTrace(
        program_name=payload["program_name"],
        total_ns=payload["total_ns"],
        base_freq_ghz=payload["base_freq_ghz"],
        gc_cycles=payload["gc_cycles"],
        gc_time_ns=payload["gc_time_ns"],
    )
    for tid, name, kind in payload["threads"]:
        trace.threads[tid] = ThreadInfo(tid=tid, name=name, kind=ThreadKind(kind))
    trace.columns = cols = _decode_events(payload["events"])
    trace.events = TraceEvents(cols)
    trace.intervals = _decode_intervals(payload["intervals"], cols.n_events)
    return trace


def _decode_events(doc: Dict[str, Any]) -> TraceColumns:
    n = doc["n"]
    cols = TraceColumns()
    for name, typecode in _EVENT_COLUMNS:
        setattr(cols, name, _unpack(doc, name, typecode, n))
    if n and max(cols.kind) >= len(KIND_ORDER):
        raise TraceError(f"event kind code {max(cols.kind)} is unknown")
    running_lo, running_tid = _csr(doc, "running_lo", "running_tid", n)
    cols.snap_lo, cols.snap_tid = _csr(doc, "snap_lo", "snap_tid", n)
    rows = len(cols.snap_tid)
    for name, typecode in _COUNTER_COLUMNS:
        setattr(cols, name, _unpack(doc, name, typecode, rows))
    detail = doc["detail"]
    if (
        not isinstance(detail, list)
        or len(detail) != n
        or not all(type(text) is str for text in detail)
    ):
        raise TraceError(f"'detail' is not a list of {n} strings")
    cols.detail = detail

    tids = running_tid.tolist()
    bounds = running_lo.tolist()
    cols.running = [
        tuple(tids[lo:hi]) for lo, hi in zip(bounds, islice(bounds, 1, None))
    ]
    return cols


def _decode_intervals(doc: Dict[str, Any], n_events: int) -> List[IntervalRecord]:
    m = doc["n"]
    scalars = [
        _unpack(doc, name, typecode, m).tolist()
        for name, typecode in _INTERVAL_COLUMNS
    ]
    thread_lo, thread_tid = _csr(doc, "thread_lo", "thread_tid", m)
    rows = len(thread_tid)
    counters = [
        CounterSet(*values)
        for values in zip(
            *(_unpack(doc, name, typecode, rows)
              for name, typecode in _COUNTER_COLUMNS)
        )
    ]
    tids = thread_tid.tolist()
    bounds = thread_lo.tolist()
    intervals = []
    for (index, start, end, freq, event_lo, event_hi, transition), lo, hi in zip(
        zip(*scalars), bounds, islice(bounds, 1, None)
    ):
        if not 0 <= event_lo <= event_hi <= n_events:
            raise TraceError(
                f"interval {index}: events [{event_lo}, {event_hi}) outside "
                f"the trace's {n_events}"
            )
        intervals.append(
            IntervalRecord(
                index, start, end, freq,
                dict(zip(tids[lo:hi], counters[lo:hi])),
                event_lo, event_hi, transition,
            )
        )
    return intervals


# ----------------------------------------------------------------------
# Archives
# ----------------------------------------------------------------------


def save_trace(trace: SimulationTrace, path: _PathLike) -> None:
    """Write ``trace`` to ``path`` (gzip when the suffix is ``.gz``)."""
    path = Path(path)
    payload = json.dumps(encode_trace(trace), separators=(",", ":"))
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def load_trace(path: _PathLike) -> SimulationTrace:
    """Read a trace written by :func:`save_trace`.

    A missing or unreadable file, a foreign version or a malformed
    document raises :class:`~repro.common.errors.TraceError`.
    """
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
    except (OSError, EOFError, ValueError, zlib.error) as exc:
        raise TraceError(f"cannot read trace archive {path}: {exc}") from exc
    return decode_trace(payload)
