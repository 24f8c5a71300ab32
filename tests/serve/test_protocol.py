"""Wire protocol: framing, envelopes and payload (de)serialization."""

import math

import pytest

from repro.arch.counters import COUNTER_FIELDS, CounterSet
from repro.core.epochs import extract_epochs
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.sim.run import simulate
from tests.util import lock_pair_program


def _epochs():
    trace = simulate(lock_pair_program(), 1.0).trace
    return extract_epochs(trace.events)


def test_frame_roundtrip():
    frame = {"v": 1, "kind": "health", "id": 7}
    line = protocol.encode_frame(frame)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert protocol.decode_frame(line) == frame


def test_decode_rejects_junk():
    with pytest.raises(ProtocolError) as err:
        protocol.decode_frame(b"{not json\n")
    assert err.value.code == "bad-frame"
    with pytest.raises(ProtocolError) as err:
        protocol.decode_frame(b"[1, 2, 3]\n")
    assert err.value.code == "bad-frame"
    with pytest.raises(ProtocolError) as err:
        protocol.decode_frame(b"\xff\xfe\n")
    assert err.value.code == "bad-frame"
    # An integer past the digit limit, and nesting past the recursion
    # limit, are junk too (not an exception that drops the connection).
    for junk in (
        b'{"v":1,"x":' + b"9" * 5000 + b"}\n",
        b"[" * 100_000 + b"]" * 100_000 + b"\n",
    ):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(junk)
        assert err.value.code == "bad-frame"


def test_encode_rejects_non_finite():
    with pytest.raises(ValueError):
        protocol.encode_frame({"x": math.inf})


def test_envelope_version_and_kind():
    assert protocol.check_envelope({"v": 1, "kind": "predict"}) == "predict"
    with pytest.raises(ProtocolError) as err:
        protocol.check_envelope({"v": 2, "kind": "predict"})
    assert err.value.code == "bad-version"
    with pytest.raises(ProtocolError) as err:
        protocol.check_envelope({"kind": "predict"})
    assert err.value.code == "bad-version"
    with pytest.raises(ProtocolError) as err:
        protocol.check_envelope({"v": 1, "kind": "shutdown"})
    assert err.value.code == "bad-request"


def test_reply_envelopes_echo_id():
    request = {"v": 1, "id": "abc", "kind": "stats"}
    ok = protocol.ok_reply(request, {"x": 1})
    assert ok == {"v": 1, "id": "abc", "ok": True, "result": {"x": 1}}
    error = protocol.error_reply(request, "overloaded", "busy")
    assert error["id"] == "abc" and error["ok"] is False
    assert error["error"]["code"] == "overloaded"
    assert protocol.error_reply(None, "bad-frame", "junk")["id"] is None


def test_counters_roundtrip():
    counters = CounterSet(
        active_ns=10.5, crit_ns=3.25, leading_ns=1.0, stall_ns=2.0,
        sqfull_ns=0.5, insns=1000, stores=10,
    )
    wire = protocol.counters_to_wire(counters)
    assert len(wire) == len(COUNTER_FIELDS)
    back = protocol.counters_from_wire(wire)
    assert protocol.counters_to_wire(back) == wire


@pytest.mark.parametrize(
    "bad",
    [
        None,
        [],
        [1.0] * 6,
        [1.0] * 8,
        [1.0, 2.0, 3.0, "x", 5.0, 6, 7],
        [1.0, 2.0, 3.0, True, 5.0, 6, 7],
        [1.0, 2.0, -3.0, 4.0, 5.0, 6, 7],
        [1.0, 2.0, float("nan"), 4.0, 5.0, 6, 7],
        [1.0, 2.0, float("inf"), 4.0, 5.0, 6, 7],
        [10**400, 2.0, 3.0, 4.0, 5.0, 6, 7],
        [1.0, 2.0, 3.0, 4.0, 5.0, 10**400, 7],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6, 10**400],
    ],
)
def test_counters_from_wire_rejects(bad):
    with pytest.raises(ProtocolError) as err:
        protocol.counters_from_wire(bad)
    assert err.value.code == "bad-request"


def test_epoch_roundtrip_is_exact():
    epochs = _epochs()
    assert epochs
    for epoch in epochs:
        back = protocol.epoch_from_wire(
            protocol.epoch_to_wire(epoch), epoch.index
        )
        assert back.start_ns == epoch.start_ns
        assert back.end_ns == epoch.end_ns
        assert back.stall_tid == epoch.stall_tid
        assert back.during_gc == epoch.during_gc
        assert set(back.thread_deltas) == set(epoch.thread_deltas)
        for tid, counters in epoch.thread_deltas.items():
            assert protocol.counters_to_wire(
                back.thread_deltas[tid]
            ) == protocol.counters_to_wire(counters)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: e.pop("start_ns"),
        lambda e: e.update(end_ns=e["start_ns"] - 1.0),
        lambda e: e.update(stall_tid="zero"),
        lambda e: e.update(threads=[1, 2]),
        lambda e: e.update(threads={"not-a-tid": [0.0] * 7}),
        lambda e: e.update(start_ns=10**400),
        lambda e: e.update(during_gc="no"),
        lambda e: e.update(during_gc=None),
        lambda e: e.update(during_gc=0),
        lambda e: e.update(stall_tid=True),
        lambda e: e.update(threads={" 1": [0.0] * 7}),
        lambda e: e.update(threads={"1": [0.0] * 7, " 1": [0.0] * 7}),
        lambda e: e.update(threads={"1_0": [0.0] * 7}),
        lambda e: e.update(threads={"01": [0.0] * 7}),
        lambda e: e.update(threads={"+1": [0.0] * 7}),
        lambda e: e.update(threads={"1": [0.0] * 6 + [10**400]}),
    ],
)
def test_epoch_from_wire_rejects(mutate):
    wire = protocol.epoch_to_wire(_epochs()[0])
    mutate(wire)
    with pytest.raises(ProtocolError) as err:
        protocol.epoch_from_wire(wire, 0)
    assert err.value.code == "bad-request"
    assert "epochs[0]" in err.value.message


def test_epoch_from_wire_defaults_during_gc_to_false():
    wire = protocol.epoch_to_wire(_epochs()[0])
    del wire["during_gc"]
    assert protocol.epoch_from_wire(wire, 0).during_gc is False


def test_require_number_rejects_integers_beyond_double_range():
    assert protocol.require_number(2**1023, "x") == float(2**1023)
    for bad in (10**400, -(10**400), 2**1024):
        with pytest.raises(ProtocolError) as err:
            protocol.require_number(bad, "base_freq_ghz")
        assert err.value.code == "bad-request"
        assert "base_freq_ghz" in err.value.message


def test_record_roundtrip_preserves_step_inputs():
    from repro.sim.intervals import IntervalRecord

    record = IntervalRecord(
        index=3, start_ns=100.0, end_ns=5e6, freq_ghz=2.5,
        per_thread={
            1: CounterSet(active_ns=1e6, insns=100),
            2: CounterSet(active_ns=2e6, insns=200),
        },
    )
    back = protocol.record_from_wire(protocol.record_to_wire(record))
    # The quantum-step logic reads index, timing, frequency and the
    # cross-thread aggregate; all must survive the trip exactly.
    assert back.index == record.index
    assert back.start_ns == record.start_ns
    assert back.end_ns == record.end_ns
    assert back.freq_ghz == record.freq_ghz
    assert back.busy_core_ns == record.busy_core_ns
    assert protocol.counters_to_wire(back.aggregate()) == (
        protocol.counters_to_wire(record.aggregate())
    )


def test_record_from_wire_rejects():
    wire = {"index": 0, "start_ns": 0.0, "end_ns": 10.0, "freq_ghz": 1.0,
            "counters": [0.0] * 7}
    for key, value in [
        ("index", "zero"), ("index", True), ("freq_ghz", 0.0),
        ("end_ns", -5.0), ("counters", [0.0] * 3),
        ("start_ns", 10**400), ("freq_ghz", 10**400),
        ("counters", [0.0] * 6 + [10**400]),
    ]:
        bad = dict(wire)
        bad[key] = value
        with pytest.raises(ProtocolError):
            protocol.record_from_wire(bad)
    with pytest.raises(ProtocolError):
        protocol.record_from_wire("not an object")


def test_target_freqs_validation():
    assert protocol.target_freqs_from_wire(None, (1.0, 2.0)) == [1.0, 2.0]
    assert protocol.target_freqs_from_wire([3.0], (1.0,)) == [3.0]
    for bad in ([], "all", [0.0], [-1.0], [float("nan")], [10**400]):
        with pytest.raises(ProtocolError):
            protocol.target_freqs_from_wire(bad, (1.0,))
