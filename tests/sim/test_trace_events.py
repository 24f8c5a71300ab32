"""The lazy event sequence of columnar traces (``repro.sim.trace.TraceEvents``).

Simulated and decoded traces keep their events as columns and create a
``TraceEvent`` only when something reads it. These tests pin that the
view behaves like the list it replaces: round-trips, equality with a
list-backed trace, int/negative/slice indexing, reads while the
simulator is still appending, and pickling across processes.
"""

import dataclasses
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.energy.manager import EnergyManager, interval_epochs
from repro.sim.run import simulate, simulate_managed
from repro.sim.serialize import decode_trace, encode_trace
from repro.sim.trace import SimulationTrace, TraceEvent, TraceEvents
from tests.util import allocating_program, lock_pair_program


@pytest.fixture(scope="module")
def trace():
    return simulate(allocating_program(), 2.0).trace


def _as_list_trace(trace):
    """The same trace with a plain event list and no columns."""
    return dataclasses.replace(trace, events=list(trace.events), columns=None)


def _built(view):
    """How many events of ``view`` have been materialized."""
    return sum(event is not None for event in view._made)


def test_simulated_and_decoded_traces_use_the_view(trace):
    assert isinstance(trace.events, TraceEvents)
    assert trace.events.columns is trace.columns
    decoded = decode_trace(encode_trace(trace))
    assert isinstance(decoded.events, TraceEvents)
    assert decoded.events.columns is decoded.columns
    assert _built(decoded.events) == 0


def test_decode_round_trip_equals_original(trace):
    decoded = decode_trace(encode_trace(trace))
    assert decoded == trace
    assert encode_trace(decoded) == encode_trace(trace)


def test_equal_to_a_list_backed_trace(trace):
    listed = _as_list_trace(trace)
    assert type(listed.events) is list
    assert listed == trace and trace == listed
    assert trace.events == listed.events and listed.events == trace.events
    shorter = dataclasses.replace(listed, events=listed.events[:-1])
    assert shorter != trace and trace != shorter
    assert trace.events != tuple(listed.events)


def test_len_and_encode_build_nothing(trace):
    decoded = decode_trace(encode_trace(trace))
    assert len(decoded.events) == trace.columns.n_events > 10
    assert encode_trace(decoded) == encode_trace(trace)
    assert _built(decoded.events) == 0


def test_int_negative_and_slice_indexing(trace):
    view = decode_trace(encode_trace(trace)).events
    listed = list(trace.events)
    n = len(listed)
    assert view[0] == listed[0]
    assert view[-1] == listed[-1]
    assert view[-n] == listed[0]
    assert view[n // 2] == listed[n // 2]
    assert _built(view) == 3
    for window in (slice(3, 10), slice(None, 4), slice(-5, None),
                   slice(None, None, 3), slice(n - 1, 5, -2), slice(8, 2),
                   slice(-3 * n, 3 * n)):
        assert view[window] == listed[window]
        assert type(view[window]) is list
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            view[bad]
    with pytest.raises(TypeError):
        view[1.0]


def test_each_event_is_built_once(trace):
    view = decode_trace(encode_trace(trace)).events
    first = view[5]
    assert view[5] is first
    assert view[2:8][3] is first
    assert list(view)[5] is first
    assert _built(view) == len(view)


def test_reads_while_the_simulator_appends():
    """A governor reads the live trace mid-run: every event it sees is
    the one the finished trace holds, and the view grew under it."""
    spec = haswell_i7_4770k()
    manager = EnergyManager(spec)
    seen = []

    def governor(record, live):
        events = live.events
        seen.append(
            (len(events), events[-1], events[record.event_lo:record.event_hi])
        )
        assert [e.time_ns for e in events] == list(live.columns.time_ns)
        return manager.step(record, interval_epochs(record, live))

    result = simulate_managed(
        allocating_program(allocations=24), governor, spec=spec, quantum_ns=2.0e5
    )
    events = result.trace.events
    lengths = [length for length, _, _ in seen]
    assert len(lengths) > 3 and lengths == sorted(lengths)
    assert lengths[-1] < len(events)
    for length, last, _ in seen:
        assert events[length - 1] is last
    record = result.trace.intervals[0]
    assert seen[0][2] == events[record.event_lo:record.event_hi]
    # The governor's decisions equal those of the stock manager.
    stock = simulate_managed(
        allocating_program(allocations=24),
        EnergyManager(spec),
        spec=spec,
        quantum_ns=2.0e5,
    )
    assert encode_trace(result.trace) == encode_trace(stock.trace)


def test_pickle_keeps_columns_only(trace):
    decoded = decode_trace(encode_trace(trace))
    decoded.events[3]
    restored = pickle.loads(pickle.dumps(decoded))
    assert restored.events.columns is restored.columns
    assert _built(restored.events) == 0
    assert restored == trace


def _worker_reads(trace):
    """Read events in a worker process and send the trace back."""
    return len(trace.events), trace.events[-1].time_ns, trace


def test_traces_cross_a_process_pool(trace):
    """Traces travel through a two-worker ProcessPoolExecutor, the
    executor behind ``--jobs 2``, in both directions."""
    payloads = [trace, decode_trace(encode_trace(trace)), _as_list_trace(trace)]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        replies = list(pool.map(_worker_reads, payloads))
    for n, last_ns, back in replies:
        assert n == len(trace.events)
        assert last_ns == trace.events[-1].time_ns
        assert back == trace
        assert encode_trace(back) == encode_trace(trace)


def test_hand_built_traces_keep_lists():
    assert type(SimulationTrace("hand").events) is list


def test_repr_lists_the_events():
    small = decode_trace(encode_trace(simulate(lock_pair_program(), 1.0).trace))
    assert repr(small.events) == repr(list(small.events))
    assert isinstance(small.events[0], TraceEvent)
