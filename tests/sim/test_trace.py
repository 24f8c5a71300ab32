"""Trace records and invariants."""

import pytest

from repro.common.errors import TraceError
from repro.arch.counters import CounterSet
from repro.osmodel.threadmodel import ThreadKind
from repro.sim.trace import EventKind, SimulationTrace, ThreadInfo, TraceEvent


def make_event(time_ns, tid, kind, running=(), counters=None):
    snapshots = {t: counters or CounterSet() for t in set(running) | ({tid} if tid >= 0 else set())}
    return TraceEvent(
        time_ns=time_ns, tid=tid, kind=kind, freq_ghz=1.0,
        running_after=tuple(running), snapshots=snapshots,
    )


def make_trace():
    trace = SimulationTrace(program_name="t", base_freq_ghz=1.0)
    trace.threads[0] = ThreadInfo(0, "app", ThreadKind.APPLICATION)
    trace.threads[1] = ThreadInfo(1, "gc", ThreadKind.GC)
    return trace


def test_epoch_boundary_kinds():
    assert EventKind.FUTEX_WAIT.is_epoch_boundary
    assert EventKind.SPAWN.is_epoch_boundary
    assert EventKind.INTERVAL.is_epoch_boundary


def test_tid_partitions():
    trace = make_trace()
    assert trace.app_tids() == [0]
    assert sorted(set(trace.threads) - set(trace.app_tids())) == [1]


def test_final_counters_uses_latest_snapshot():
    trace = make_trace()
    early = CounterSet(insns=10)
    late = CounterSet(insns=99)
    trace.events.append(make_event(1.0, 0, EventKind.SPAWN, (0,), early))
    trace.events.append(make_event(2.0, 0, EventKind.EXIT, (), late))
    assert trace.final_counters()[0].insns == 99


def test_validate_detects_out_of_order():
    trace = make_trace()
    trace.events.append(make_event(2.0, 0, EventKind.SPAWN, (0,)))
    trace.events.append(make_event(1.0, 0, EventKind.EXIT))
    with pytest.raises(TraceError):
        trace.validate()


def test_validate_requires_snapshots_for_running():
    trace = make_trace()
    event = TraceEvent(
        time_ns=1.0, tid=0, kind=EventKind.SPAWN, freq_ghz=1.0,
        running_after=(0, 1), snapshots={0: CounterSet()},
    )
    trace.events.append(event)
    with pytest.raises(TraceError):
        trace.validate()


def test_validate_rejects_unknown_tid():
    trace = make_trace()
    trace.events.append(make_event(1.0, 9, EventKind.SPAWN, ()))
    with pytest.raises(TraceError):
        trace.validate()
