"""Trace serialization: the columnar codec's round-trips and its validation."""

import json
from array import array

import pytest

from repro.arch.clusters import big_little
from repro.arch.counters import CounterSet
from repro.arch.specs import haswell_i7_4770k
from repro.common.errors import TraceError
from repro.energy.manager import ClusterManager, EnergyManager
from repro.osmodel.threadmodel import ThreadKind
from repro.sim.intervals import IntervalRecord
from repro.sim.run import simulate, simulate_managed
from repro.sim.serialize import (
    FORMAT_VERSION,
    _pack,
    _unpack,
    decode_trace,
    encode_trace,
    load_trace,
    save_trace,
    trace_to_dict,
)
from repro.sim.trace import (
    KIND_ORDER,
    EventKind,
    SimulationTrace,
    ThreadInfo,
    TraceEvent,
)
from tests.util import allocating_program, lock_pair_program


def assert_traces_equal(a, b):
    assert a.program_name == b.program_name
    assert a.total_ns == b.total_ns
    assert a.base_freq_ghz == b.base_freq_ghz
    assert a.gc_cycles == b.gc_cycles
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert (ea.time_ns, ea.tid, ea.kind, ea.detail) == (
            eb.time_ns, eb.tid, eb.kind, eb.detail
        )
        assert ea.running_after == eb.running_after
        assert set(ea.snapshots) == set(eb.snapshots)
        for tid in ea.snapshots:
            assert ea.snapshots[tid] == eb.snapshots[tid]
    assert len(a.intervals) == len(b.intervals)
    for ia, ib in zip(a.intervals, b.intervals):
        assert (ia.index, ia.start_ns, ia.end_ns, ia.freq_ghz) == (
            ib.index, ib.start_ns, ib.end_ns, ib.freq_ghz
        )
        assert ia.per_thread == ib.per_thread


def canonical_bytes(trace) -> bytes:
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


def roundtrip(trace):
    """Encode, pass through JSON text as the stores do, decode."""
    return decode_trace(json.loads(json.dumps(encode_trace(trace))))


def test_dict_roundtrip():
    trace = simulate(allocating_program(), 2.0).trace
    rebuilt = roundtrip(trace)
    assert_traces_equal(trace, rebuilt)
    rebuilt.validate()


def test_file_roundtrip_plain_and_gzip(tmp_path):
    trace = simulate(lock_pair_program(), 1.0).trace
    for name in ("trace.json", "trace.json.gz"):
        path = tmp_path / name
        save_trace(trace, path)
        assert path.exists() and path.stat().st_size > 0
        assert_traces_equal(trace, load_trace(path))


def test_gzip_is_smaller(tmp_path):
    trace = simulate(allocating_program(), 1.0).trace
    plain = tmp_path / "t.json"
    packed = tmp_path / "t.json.gz"
    save_trace(trace, plain)
    save_trace(trace, packed)
    assert packed.stat().st_size < plain.stat().st_size


def test_version_guard(tmp_path):
    trace = simulate(lock_pair_program(), 1.0).trace
    payload = encode_trace(trace)
    payload["format_version"] = FORMAT_VERSION + 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TraceError):
        load_trace(path)


def test_row_per_event_v1_archive_is_refused_with_the_version(tmp_path):
    trace = simulate(lock_pair_program(), 1.0).trace
    payload = trace_to_dict(trace)
    payload["format_version"] = 1
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(TraceError, match="format version 1 not supported"):
        load_trace(path)


def test_missing_or_unreadable_archive_is_a_trace_error(tmp_path):
    with pytest.raises(TraceError):
        load_trace(tmp_path / "absent.json.gz")
    garbage = tmp_path / "garbage.json.gz"
    garbage.write_bytes(b"not gzip at all")
    with pytest.raises(TraceError):
        load_trace(garbage)
    with pytest.raises(TraceError):
        load_trace(tmp_path)  # a directory


def test_loaded_trace_predicts_identically():
    from repro.core.predictors import make_predictor

    trace = simulate(allocating_program(), 1.0).trace
    rebuilt = roundtrip(trace)
    predictor = make_predictor("DEP+BURST")
    assert predictor.predict_total_ns(trace, 4.0) == predictor.predict_total_ns(
        rebuilt, 4.0
    )


# ----------------------------------------------------------------------
# Fidelity across trace shapes
# ----------------------------------------------------------------------


def _fixed_trace():
    return simulate(allocating_program(), 2.0).trace


def _managed_trace():
    spec = haswell_i7_4770k()
    trace = simulate_managed(
        allocating_program(), EnergyManager(spec), spec=spec, quantum_ns=2.0e5
    ).trace
    assert any(e.kind is EventKind.FREQ_CHANGE for e in trace.events)
    return trace


def _per_core_trace():
    spec = haswell_i7_4770k()
    trace = simulate_managed(
        allocating_program(),
        ClusterManager(big_little(spec)),
        spec=spec,
        quantum_ns=2.0e5,
        per_core_dvfs=True,
    ).trace
    assert any(e.kind is EventKind.FREQ_CHANGE for e in trace.events)
    return trace


def _hand_built_trace():
    trace = SimulationTrace(
        program_name="hand", total_ns=9.0, base_freq_ghz=2.0,
        gc_cycles=1, gc_time_ns=1.5,
    )
    trace.threads[2] = ThreadInfo(2, "gc", ThreadKind.GC)
    trace.threads[0] = ThreadInfo(0, "app", ThreadKind.APPLICATION)
    counters = CounterSet(1.0, 0.25, 0.5, 0.125, 0.0, 40, 3)
    later = CounterSet(5.5, 1.25, 2.5, 0.625, 0.5, 400, 30)
    # Snapshot dicts deliberately not in ascending-tid order.
    trace.events.append(TraceEvent(
        1.0, 0, EventKind.SPAWN, 2.0, (0,), {0: counters}, "",
    ))
    trace.events.append(TraceEvent(
        3.0, 2, EventKind.GC_START, 2.0, (2, 0), {2: counters, 0: later},
        "minor",
    ))
    trace.events.append(TraceEvent(
        9.0, -1, EventKind.INTERVAL, 2.0, (), {}, "q0",
    ))
    trace.intervals.append(IntervalRecord(
        0, 0.0, 9.0, 2.0, {2: counters, 0: later}, 0, 3, 0.0,
    ))
    assert trace.columns is None
    return trace


@pytest.mark.parametrize(
    "build",
    [_fixed_trace, _managed_trace, _per_core_trace, _hand_built_trace],
    ids=["fixed", "managed", "per-core", "hand-built"],
)
def test_decoded_trace_renders_the_original_bytes(build):
    trace = build()
    rebuilt = roundtrip(trace)
    assert canonical_bytes(rebuilt) == canonical_bytes(trace)
    assert rebuilt.columns is not None
    assert rebuilt.columns.n_events == len(rebuilt.events)
    assert [e.running_after for e in rebuilt.events] == rebuilt.columns.running


# ----------------------------------------------------------------------
# Structural defects raise TraceError, never a bare Python error
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def encoded():
    return encode_trace(simulate(lock_pair_program(), 1.0).trace)


def _damaged(encoded, edit):
    payload = json.loads(json.dumps(encoded))
    edit(payload)
    return payload


def _set_column(payload, block, name, typecode, values):
    payload[block][name] = _pack(array(typecode, values))


def _column(payload, block, name, typecode):
    return _unpack(payload[block], name, typecode).tolist()


def _bad_base64(payload):
    payload["events"]["time_ns"] = payload["events"]["time_ns"][:-4] + "*!*!"


def _short_column(payload):
    values = _column(payload, "events", "freq_ghz", "d")
    _set_column(payload, "events", "freq_ghz", "d", values[:-1])


def _short_counter_column(payload):
    values = _column(payload, "intervals", "insns", "q")
    _set_column(payload, "intervals", "insns", "q", values[:-1])


def _offsets_not_from_zero(payload):
    values = _column(payload, "events", "snap_lo", "q")
    _set_column(payload, "events", "snap_lo", "q", [1] + values[1:])


def _offsets_wrong_end(payload):
    values = _column(payload, "events", "running_lo", "q")
    _set_column(payload, "events", "running_lo", "q", values[:-1] + [values[-1] + 1])


def _offsets_not_monotone(payload):
    values = _column(payload, "events", "snap_lo", "q")
    assert values[1] < values[2]
    values[1], values[2] = values[2], values[1]
    _set_column(payload, "events", "snap_lo", "q", values)


def _unknown_kind(payload):
    values = _column(payload, "events", "kind", "B")
    values[0] = len(KIND_ORDER)
    _set_column(payload, "events", "kind", "B", values)


def _short_detail(payload):
    payload["events"]["detail"].pop()


def _missing_field(payload):
    del payload["program_name"]


def _interval_events_out_of_range(payload):
    values = _column(payload, "intervals", "event_hi", "q")
    values[-1] = payload["events"]["n"] + 1
    _set_column(payload, "intervals", "event_hi", "q", values)


@pytest.mark.parametrize(
    "edit",
    [
        _bad_base64, _short_column, _short_counter_column,
        _offsets_not_from_zero, _offsets_wrong_end, _offsets_not_monotone,
        _unknown_kind, _short_detail, _missing_field,
        _interval_events_out_of_range,
    ],
)
def test_structural_defect_raises_trace_error(encoded, edit):
    decode_trace(_damaged(encoded, lambda payload: None))  # the intact one
    with pytest.raises(TraceError):
        decode_trace(_damaged(encoded, edit))


def test_non_object_document_raises_trace_error():
    for payload in (None, [], "trace", {"format_version": FORMAT_VERSION}):
        with pytest.raises(TraceError):
            decode_trace(payload)
