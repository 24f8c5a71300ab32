"""End-to-end server behaviour over a real unix socket.

Covers the happy paths (predict/govern/health/stats) and the wire-layer
fault matrix: junk frames, unknown protocol versions, truncated and
oversized frames, mid-request disconnects, and backpressure (queue_depth
shedding with explicit ``overloaded`` replies, never unbounded buffering).
"""

import json
import os
import socket

import pytest

from repro.common.errors import ConfigError
from repro.core.epochs import extract_epochs
from repro.core.predictors import get_predictor
from repro.core.vectorized import PredictJob, scalar_results
from repro.serve import protocol
from repro.serve.background import BackgroundServer
from repro.serve.client import (
    ServeClient,
    ServeProtocolViolation,
    ServeRequestError,
)
from repro.serve.server import ServeConfig
from repro.sim.run import simulate
from tests.util import lock_pair_program, requires_af_unix


@pytest.fixture(scope="module")
def epochs():
    trace = simulate(lock_pair_program(), 1.0).trace
    return extract_epochs(trace.events)


@pytest.fixture()
def server(tmp_path):
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("platform has no AF_UNIX sockets")
    config = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        host="127.0.0.1",
        port=0,
        max_frame_bytes=64 * 1024,
        queue_depth=4,
    )
    with BackgroundServer(config) as background:
        yield background


def connect(server):
    return ServeClient.connect(socket_path=server.config.socket_path)


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------


def test_config_requires_an_endpoint():
    with pytest.raises(ConfigError):
        ServeConfig()
    with pytest.raises(ConfigError):
        ServeConfig(socket_path="/tmp/x.sock", max_batch=0)
    with pytest.raises(ConfigError):
        ServeConfig(socket_path="/tmp/x.sock", queue_depth=0)


def test_health_and_stats(server):
    with connect(server) as client:
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == protocol.PROTOCOL_VERSION
        assert "DEP+BURST" in health["predictors"]
        stats = client.stats()
        assert stats["connections"]["active"] >= 1
        assert stats["endpoints"]["health"]["requests"] == 1


def test_predict_matches_in_process(server, epochs):
    with connect(server) as client:
        for name in ("DEP+BURST", "DEP", "M+CRIT", "COOP"):
            reply = client.predict(
                epochs, 1.0, predictor=name, target_freqs_ghz=[2.0, 4.0]
            )
            predictor = get_predictor(name)
            expected = [
                predictor.predict_epochs(epochs, 1.0, f) for f in (2.0, 4.0)
            ]
            assert reply["predicted_ns"] == expected, name


def test_predict_without_targets_uses_every_set_point(server, epochs):
    with connect(server) as client:
        reply = client.predict(epochs, 1.0)
    frequencies = server.config.spec.frequencies()
    assert len(frequencies) == 25
    assert reply["target_freqs_ghz"] == list(frequencies)
    predictor = get_predictor("DEP+BURST")
    assert reply["predicted_ns"] == [
        predictor.predict_epochs(epochs, 1.0, f) for f in frequencies
    ]


def test_predict_over_tcp(server, epochs):
    client = ServeClient.connect(host="127.0.0.1", port=server.tcp_port)
    with client:
        reply = client.predict(epochs, 1.0, target_freqs_ghz=[2.0])
        predictor = get_predictor("DEP+BURST")
        assert reply["predicted_ns"] == [
            predictor.predict_epochs(epochs, 1.0, 2.0)
        ]


def test_unknown_predictor_is_bad_request(server, epochs):
    with connect(server) as client:
        with pytest.raises(ServeRequestError) as err:
            client.predict(epochs, 1.0, predictor="ORACLE")
        assert err.value.code == "bad-request"


def test_predict_error_reply_keeps_connection(server, epochs):
    with connect(server) as client:
        with pytest.raises(ServeRequestError) as err:
            client.predict(epochs, 1.0, target_freqs_ghz=[0.0])
        assert err.value.code in ("bad-request", "predict-error")
        # Connection still usable.
        assert client.health()["status"] == "ok"


def test_govern_session_lifecycle(server, epochs):
    from repro.sim.intervals import IntervalRecord
    from repro.arch.counters import CounterSet

    with connect(server) as client:
        session = client.open_session()
        record = IntervalRecord(
            index=0, start_ns=0.0, end_ns=5e6, freq_ghz=4.0,
            per_thread={0: CounterSet(active_ns=5e6, insns=1000)},
        )
        session.step(record, epochs)
        decisions = session.close()
        assert len(decisions) == 1
        assert decisions[0].interval_index == 0
        # Closed sessions are gone.
        with pytest.raises(ServeRequestError) as err:
            client.request("govern", op="step", session=session.session_id,
                           record=protocol.record_to_wire(record), epochs=[])
        assert err.value.code == "unknown-session"


def test_govern_rejects_unknown_config_field(server):
    with connect(server) as client:
        with pytest.raises(ServeRequestError) as err:
            client.request("govern", op="open",
                           config={"tolerable_slowdown": 0.1, "turbo": True})
        assert err.value.code == "bad-request"
        with pytest.raises(ServeRequestError) as err:
            client.request("govern", op="open",
                           config={"objective": "min-temperature"})
        assert err.value.code == "bad-request"


def test_govern_unknown_op(server):
    with connect(server) as client:
        with pytest.raises(ServeRequestError) as err:
            client.request("govern", op="restart")
        assert err.value.code == "bad-request"


# ----------------------------------------------------------------------
# Fault injection: the wire layer
# ----------------------------------------------------------------------


def test_junk_json_gets_bad_frame_and_connection_survives(server):
    with connect(server) as client:
        for junk in (
            b"{this is not json\n",
            b'{"v":1,"kind":"predict","x":' + b"9" * 5000 + b"}\n",
            b"[" * 5000 + b"]" * 5000 + b"\n",
        ):
            client.send_raw(junk)
            reply = client.read_reply()
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-frame"
        assert client.health()["status"] == "ok"


def test_non_object_frame_rejected(server):
    with connect(server) as client:
        client.send_raw(b"[1,2,3]\n")
        assert client.read_reply()["error"]["code"] == "bad-frame"


def test_unknown_protocol_version(server):
    with connect(server) as client:
        client.send_raw(protocol.encode_frame(
            {"v": 99, "kind": "health", "id": 1}
        ))
        reply = client.read_reply()
        assert reply["error"]["code"] == "bad-version"
        assert reply["id"] == 1
        assert client.health()["status"] == "ok"


def test_unknown_kind(server):
    with connect(server) as client:
        client.send_raw(protocol.encode_frame(
            {"v": 1, "kind": "shutdown", "id": 2}
        ))
        assert client.read_reply()["error"]["code"] == "bad-request"


def test_malformed_fields_get_bad_request_and_connection_lives(server, epochs):
    """Oversized integers and coerced epoch fields are each a
    ``bad-request`` naming the field; the next frame is still answered."""
    good = protocol.epoch_to_wire(epochs[0])
    bad_epochs = [
        {**good, "during_gc": "no"},
        {**good, "stall_tid": True},
        {**good, "threads": {" 1": [0.0] * 7}},
        {**good, "threads": {"1_0": [0.0] * 7}},
        {**good, "threads": {"1": [0.0] * 5 + [10**400, 0]}},
    ]
    record = {"index": 0, "start_ns": 0.0, "end_ns": 5e6, "freq_ghz": 4.0,
              "counters": [5e6, 0.0, 0.0, 0.0, 0.0, 1000, 0]}
    with connect(server) as client:
        session = client.open_session().session_id
        frames = [
            ({"kind": "predict", "base_freq_ghz": 10**400, "epochs": []},
             "base_freq_ghz"),
            ({"kind": "govern", "op": "step", "session": session,
              "record": {**record, "start_ns": 10**400}, "epochs": []},
             "record.start_ns"),
        ]
        for bad in bad_epochs:
            frames.append(({"kind": "predict", "base_freq_ghz": 1.0,
                            "epochs": [bad]}, "epochs[0]"))
            frames.append(({"kind": "govern", "op": "step", "session": session,
                            "record": record, "epochs": [bad]}, "epochs[0]"))
        for request_id, (frame, field) in enumerate(frames):
            client.send_raw(protocol.encode_frame(
                {"v": 1, **frame, "id": request_id}
            ))
            reply = client.read_reply()
            assert reply["id"] == request_id
            assert reply["error"]["code"] == "bad-request", reply
            assert field in reply["error"]["message"]
        assert client.health()["status"] == "ok"


def test_unexpected_predict_parse_failure_is_internal(
    server, epochs, monkeypatch
):
    from repro.serve.server import Server

    def broken(self, frame):
        raise RuntimeError("parser bug")

    monkeypatch.setattr(Server, "_parse_predict", broken)
    with connect(server) as client:
        with pytest.raises(ServeRequestError) as err:
            client.predict(epochs, 1.0)
        assert err.value.code == "internal"
        assert client.health()["status"] == "ok"


def test_truncated_frame_replies_then_closes(server):
    with connect(server) as client:
        # Half a frame, then EOF from our side.
        client._sock.sendall(b'{"v": 1, "kind": "heal')
        client._sock.shutdown(socket.SHUT_WR)
        reply = client.read_reply()
        assert reply["error"]["code"] == "bad-frame"
        assert "truncated" in reply["error"]["message"]
        # Server hangs up after the reply.
        with pytest.raises(ServeProtocolViolation):
            client.read_reply()


def test_oversized_frame_replies_then_closes(server, epochs):
    with connect(server) as client:
        giant = b'{"v": 1, "kind": "health", "pad": "' + b"x" * (
            server.config.max_frame_bytes + 1024
        ) + b'"}\n'
        client.send_raw(giant)
        reply = client.read_reply()
        assert reply["error"]["code"] == "bad-frame"
        assert "exceeds" in reply["error"]["message"]
        with pytest.raises(ServeProtocolViolation):
            client.read_reply()
    # The server survives and accepts new connections.
    with connect(server) as client:
        assert client.health()["status"] == "ok"


def test_mid_request_disconnect_leaves_server_healthy(server, epochs):
    client = connect(server)
    payload = {
        "v": 1, "id": 1, "kind": "predict", "base_freq_ghz": 1.0,
        "epochs": [protocol.epoch_to_wire(e) for e in epochs],
    }
    client.send_raw(protocol.encode_frame(payload))
    client.close()  # hang up before the reply lands
    with connect(server) as fresh:
        assert fresh.health()["status"] == "ok"
        stats = fresh.stats()
        assert stats["connections"]["active"] >= 1


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------


@requires_af_unix
def test_overload_sheds_with_explicit_replies(tmp_path, epochs):
    config = ServeConfig(
        socket_path=str(tmp_path / "overload.sock"),
        max_batch=256,
        queue_depth=2,
    )
    burst = 12
    with BackgroundServer(config) as server:
        with ServeClient.connect(socket_path=config.socket_path) as client:
            wire_epochs = [protocol.epoch_to_wire(e) for e in epochs]
            # One write: the server reads the whole burst in one pass,
            # before the loop turns and its first batch can flush.
            client.send_raw(b"".join(
                protocol.encode_frame({
                    "v": 1, "id": i, "kind": "predict",
                    "base_freq_ghz": 1.0, "target_freqs_ghz": [2.0],
                    "epochs": wire_epochs,
                })
                for i in range(burst)
            ))
            replies = [client.read_reply() for _ in range(burst)]
            # Every request is answered exactly once.
            assert sorted(r["id"] for r in replies) == list(range(burst))
            shed = [r for r in replies if not r["ok"]]
            served = [r for r in replies if r["ok"]]
            assert len(served) == config.queue_depth
            assert len(shed) == burst - config.queue_depth
            for reply in shed:
                assert reply["error"]["code"] == "overloaded"
            stats = client.stats()
            assert stats["overloaded"] == len(shed)
            # Shedding is not a connection failure: the window drains and
            # new requests are served again.
            assert client.predict(epochs, 1.0, target_freqs_ghz=[2.0])


@requires_af_unix
def test_slow_reader_never_grows_server_queues(tmp_path, epochs):
    """A client that writes but never reads must not grow server state.

    The in-flight cap bounds predict tasks; everything past it is shed
    synchronously in the read loop, whose replies drain through the
    (eventually full) socket — so the server's pending work stays at
    queue_depth no matter how much the client pumps in.
    """
    config = ServeConfig(
        socket_path=str(tmp_path / "slow.sock"),
        max_batch=256,
        queue_depth=3,
    )
    with BackgroundServer(config) as server:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(config.socket_path)
        raw.settimeout(5.0)
        wire_epochs = [protocol.epoch_to_wire(e) for e in epochs]
        frame = protocol.encode_frame({
            "v": 1, "id": 0, "kind": "predict", "base_freq_ghz": 1.0,
            "target_freqs_ghz": [2.0], "epochs": wire_epochs,
        })
        # Pump frames without reading until the socket refuses more
        # (server reply path blocked on drain -> reads stop -> our
        # send buffer fills). Cap the attempt count so a regression
        # fails the test instead of hanging it.
        sent = 0
        try:
            for _ in range(10_000):
                raw.sendall(frame)
                sent += 1
        except socket.timeout:
            pass
        assert sent < 10_000, "server kept consuming an unread flood"
        # The batcher never held more than the in-flight cap.
        assert server.server.batcher.pending <= config.queue_depth
        raw.close()
        # And the server is still healthy for well-behaved clients.
        with ServeClient.connect(socket_path=config.socket_path) as client:
            assert client.health()["status"] == "ok"


@requires_af_unix
def test_one_write_of_predicts_coalesces_without_a_timer(tmp_path, epochs):
    """Predicts read in one pass share batches; no flush timer is needed."""
    config = ServeConfig(socket_path=str(tmp_path / "coalesce.sock"))
    wire_epochs = [protocol.epoch_to_wire(e) for e in epochs]
    bases = [1.0 + 0.125 * i for i in range(16)]
    with BackgroundServer(config):
        with ServeClient.connect(socket_path=config.socket_path) as client:
            client.send_raw(b"".join(
                protocol.encode_frame({
                    "v": 1, "id": i, "kind": "predict",
                    "base_freq_ghz": base, "target_freqs_ghz": [2.0, 4.0],
                    "epochs": wire_epochs,
                })
                for i, base in enumerate(bases)
            ))
            replies = [client.read_reply() for _ in bases]
            batches = client.stats()["batch_size"]
    predictor = get_predictor("DEP+BURST")
    assert sorted(r["id"] for r in replies) == list(range(len(bases)))
    for reply in replies:
        job = PredictJob(
            predictor=predictor,
            epochs=tuple(epochs),
            base_freq_ghz=bases[reply["id"]],
            target_freqs_ghz=(2.0, 4.0),
        )
        assert reply["result"]["predicted_ns"] == scalar_results(job)
    assert batches["sum"] == len(bases)
    assert batches["count"] < len(bases)


@requires_af_unix
def test_session_limit_is_overloaded(tmp_path):
    config = ServeConfig(
        socket_path=str(tmp_path / "sessions.sock"), max_sessions=2
    )
    with BackgroundServer(config):
        with ServeClient.connect(socket_path=config.socket_path) as client:
            client.open_session()
            client.open_session()
            with pytest.raises(ServeRequestError) as err:
                client.open_session()
            assert err.value.code == "overloaded"


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def test_stats_counts_and_latency_histograms(server, epochs):
    with connect(server) as client:
        for _ in range(3):
            client.predict(epochs, 1.0, target_freqs_ghz=[2.0])
        with pytest.raises(ServeRequestError):
            client.predict(epochs, 1.0, predictor="ORACLE")
        stats = client.stats()
        predict = stats["endpoints"]["predict"]
        assert predict["requests"] == 4
        assert predict["errors"] == {"bad-request": 1}
        assert predict["latency_s"]["count"] == 4
        assert predict["latency_s"]["p99"] > 0
        batch = stats["batch_size"]
        assert batch["count"] >= 1
        assert batch["sum"] >= 3


def test_stats_log_line_is_structured_json(server, epochs):
    registry = server.server.metrics
    with connect(server) as client:
        client.predict(epochs, 1.0, target_freqs_ghz=[2.0])
    line = registry.log_line()
    assert line.startswith("repro-serve stats ")
    window = json.loads(line[len("repro-serve stats "):])
    assert window["requests"] >= 1
    assert "interval_s" in window
    # Deltas reset: a second line right away reports ~nothing new.
    again = json.loads(registry.log_line()[len("repro-serve stats "):])
    assert again["requests"] == 0


@requires_af_unix
def test_socket_file_cleanup(tmp_path):
    path = str(tmp_path / "gone.sock")
    with BackgroundServer(ServeConfig(socket_path=path)):
        assert os.path.exists(path)


# ----------------------------------------------------------------------
# Prediction cache: hits must be byte-identical to cold computes
# ----------------------------------------------------------------------


def _predict_frame(wire_epochs, request_id, id_last=True):
    """One predict frame's wire bytes, controlling the id's position.

    A trailing id is the layout :class:`ServeClient` sends and the only
    one the prediction cache keys; an id-first frame is answered
    uncached.
    """
    frame = {
        "v": protocol.PROTOCOL_VERSION,
        "kind": "predict",
        "base_freq_ghz": 1.0,
        "target_freqs_ghz": [2.0, 3.5],
        "epochs": wire_epochs,
    }
    if id_last:
        frame["id"] = request_id
    else:
        frame = {"id": request_id, **frame}
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def _raw_replies(socket_path, frames):
    with ServeClient.connect(socket_path=socket_path) as client:
        replies = []
        for frame in frames:
            client.send_raw(frame)
            replies.append(client._file.readline())
        return replies


@requires_af_unix
def test_cache_hit_replies_are_byte_identical(tmp_path, epochs):
    """Cold compute, cache hit and uncached compute write the same bytes.

    The server splices result fragments and the request's own id digits
    into a hand-built reply envelope; this pins that envelope against
    the ordinary ``encode_frame`` encoding an uncached server produces.
    """
    wire_epochs = [protocol.epoch_to_wire(e) for e in epochs]
    frames = [
        _predict_frame(wire_epochs, 1),  # cold compute, stored
        _predict_frame(wire_epochs, 2),  # hit (trailing id)
        _predict_frame(wire_epochs, 3, id_last=False),  # uncached compute
    ]
    cached = ServeConfig(
        socket_path=str(tmp_path / "cached.sock"),
        predict_cache_mem=256,
    )
    with BackgroundServer(cached) as server:
        replies = _raw_replies(cached.socket_path, frames)
        with ServeClient.connect(socket_path=cached.socket_path) as client:
            cache_stats = client.stats()["predict_cache"]
    plain = ServeConfig(socket_path=str(tmp_path / "plain.sock"))
    with BackgroundServer(plain):
        expected = _raw_replies(plain.socket_path, frames)
    assert replies == expected
    # And only the trailing-id repeat took the cached path.
    assert cache_stats["hits"] == 1
    assert cache_stats["misses"] == 1
    assert cache_stats["stores"] == 1


@requires_af_unix
def test_stats_reports_cache_tiers_and_raw_memo(tmp_path, epochs):
    config = ServeConfig(
        socket_path=str(tmp_path / "stats.sock"),
        predict_cache_mem=256,
        predict_cache_dir=str(tmp_path / "shared"),
    )
    with BackgroundServer(config):
        with ServeClient.connect(socket_path=config.socket_path) as client:
            for _ in range(2):
                client.predict(epochs, 1.0, target_freqs_ghz=[2.0])
            cache = client.stats()["predict_cache"]
    assert cache["misses"] == 1
    assert cache["stores"] == 1
    assert len(cache["tiers"]) == 2  # memory LRU + shared file tier


@requires_af_unix
def test_file_tier_hit_is_served_without_decoding(
    tmp_path, epochs, monkeypatch
):
    """A worker that never computed a request answers it from the shared
    file tier straight from the request bytes."""
    wire_epochs = [protocol.epoch_to_wire(e) for e in epochs]
    shared = str(tmp_path / "shared")
    configs = [
        ServeConfig(
            socket_path=str(tmp_path / f"w{i}.sock"),
                predict_cache_mem=64,
            predict_cache_dir=shared,
        )
        for i in range(2)
    ]
    with BackgroundServer(configs[0]):
        (cold,) = _raw_replies(
            configs[0].socket_path, [_predict_frame(wire_epochs, 1)]
        )
    decoded = []
    real_decode = protocol.decode_frame

    def counting_decode(line):
        decoded.append(line)
        return real_decode(line)

    monkeypatch.setattr(protocol, "decode_frame", counting_decode)
    with BackgroundServer(configs[1]) as worker:
        (hit,) = _raw_replies(
            configs[1].socket_path, [_predict_frame(wire_epochs, 9)]
        )
        assert decoded == []
        tiers = worker.server.prediction_cache.store.tier_stats()
    assert hit == cold.replace(b'"id":1,', b'"id":9,', 1)
    assert tiers[0]["misses"] == 1 and tiers[1]["hits"] == 1


@requires_af_unix
def test_invalid_predict_is_never_stored(tmp_path, epochs):
    wire_epochs = [protocol.epoch_to_wire(e) for e in epochs]
    frame = _predict_frame(wire_epochs, 1).replace(
        b'"base_freq_ghz":1.0', b'"base_freq_ghz":-1.0'
    )
    config = ServeConfig(
        socket_path=str(tmp_path / "bad.sock"),
        predict_cache_mem=64,
    )
    with BackgroundServer(config):
        replies = _raw_replies(config.socket_path, [frame, frame])
        with ServeClient.connect(socket_path=config.socket_path) as client:
            cache = client.stats()["predict_cache"]
    assert [json.loads(r)["error"]["code"] for r in replies] == [
        "bad-request", "bad-request",
    ]
    assert (cache["hits"], cache["misses"], cache["stores"]) == (0, 2, 0)


@requires_af_unix
def test_non_predict_frames_never_touch_the_cache(tmp_path, epochs):
    from repro.arch.counters import CounterSet
    from repro.sim.intervals import IntervalRecord

    config = ServeConfig(
        socket_path=str(tmp_path / "govern.sock"),
        predict_cache_mem=64,
        predict_cache_dir=str(tmp_path / "shared"),
    )
    record = IntervalRecord(
        index=0, start_ns=0.0, end_ns=5e6, freq_ghz=4.0,
        per_thread={0: CounterSet(active_ns=5e6, insns=1000)},
    )
    with BackgroundServer(config) as background:
        with ServeClient.connect(socket_path=config.socket_path) as client:
            client.health()
            session = client.open_session()
            session.step(record, epochs)
            session.close()
            cache = client.stats()["predict_cache"]
        tiers = background.server.prediction_cache.store.tier_stats()
    assert (cache["hits"], cache["misses"], cache["stores"]) == (0, 0, 0)
    for tier in tiers:
        assert (tier["hits"], tier["misses"], tier["stores"]) == (0, 0, 0)


def test_cancel_while_closing_keeps_connection_accounting(tmp_path):
    """A task cancelled in ``wait_closed`` still closes its books."""
    import asyncio

    from repro.serve.server import Server

    class EofReader:
        async def readline(self):
            return b""

    class StuckWriter:
        def __init__(self):
            self.closing = asyncio.Event()

        def close(self):
            self.closing.set()

        async def wait_closed(self):
            await asyncio.Event().wait()  # only a cancel ends this

    async def scenario():
        server = Server(ServeConfig(socket_path=str(tmp_path / "s.sock")))
        writer = StuckWriter()
        task = asyncio.ensure_future(
            server._handle_connection(EofReader(), writer)
        )
        await writer.closing.wait()
        await asyncio.sleep(0)  # now parked in wait_closed
        assert server.metrics.connections_active == 1
        task.cancel()
        await task  # raises at the parent: CancelledError escaped
        return server, task

    server, task = asyncio.run(scenario())
    assert not task.cancelled()
    assert server.metrics.connections_active == 0
    assert task not in server._conn_tasks
