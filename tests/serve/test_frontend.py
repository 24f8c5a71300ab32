"""The unix-pool frontend: public endpoints, routing, and parity.

Routing decisions (:meth:`Frontend._route`) are pure and tested without
any sockets; the relay itself runs against a real two-worker pool.
"""

import socket

import pytest

from repro.core.epochs import extract_epochs
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeProtocolViolation
from repro.serve.frontend import BackgroundFrontend, Frontend
from repro.serve.pool import WorkerPool
from repro.serve.server import ServeConfig
from repro.serve.sharding import shard_for_key, tag_session_id
from repro.sim.run import simulate
from tests.util import lock_pair_program, requires_af_unix

pytestmark = requires_af_unix


# ----------------------------------------------------------------------
# Routing (pure)
# ----------------------------------------------------------------------


def _frontend():
    return Frontend(["/w0", "/w1", "/w2"], socket_path="/unused.sock")


def _line(**frame):
    return protocol.encode_frame(frame)


class TestRoute:
    def test_stateless_kinds_stay_on_the_sticky_worker(self):
        frontend = _frontend()
        for kind in ("predict", "health", "stats"):
            line = _line(v=1, kind=kind, id=1)
            assert frontend._route(line, sticky=2) == 2

    def test_frontend_requires_workers_and_an_endpoint(self):
        with pytest.raises(ValueError, match="worker"):
            Frontend([], socket_path="/x.sock")
        with pytest.raises(ValueError, match="socket_path"):
            Frontend(["/w0"])

    def test_govern_open_shards_by_session_key(self):
        frontend = _frontend()
        line = _line(v=1, kind="govern", op="open", session_key="lusearch",
                     id=1)
        assert frontend._route(line, sticky=0) == shard_for_key("lusearch", 3)

    def test_keyless_govern_open_is_sticky(self):
        frontend = _frontend()
        line = _line(v=1, kind="govern", op="open", id=1)
        assert frontend._route(line, sticky=1) == 1

    def test_govern_step_follows_the_session_id_tag(self):
        frontend = _frontend()
        session = tag_session_id("g4", 2)
        line = _line(v=1, kind="govern", op="step", session=session, id=9)
        assert frontend._route(line, sticky=0) == 2

    def test_govern_token_inside_a_string_is_not_misrouted(self):
        """The pre-filter may fire; the JSON decode must disambiguate."""
        frontend = _frontend()
        line = _line(v=1, kind="predict", note='"govern"', id=1)
        assert frontend._route(line, sticky=1) == 1

    def test_undecodable_line_goes_to_the_sticky_worker(self):
        """The worker owns the authoritative bad-frame reply."""
        frontend = _frontend()
        assert frontend._route(b'{"govern" broken\n', sticky=1) == 1
        nested = b'{"kind":"govern","x":' + b"[" * 5000 + b"]" * 5000 + b"}\n"
        assert frontend._route(nested, sticky=1) == 1


# ----------------------------------------------------------------------
# The relay, against a live pool
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def epochs():
    trace = simulate(lock_pair_program(), 1.0).trace
    return extract_epochs(trace.events)


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """A two-worker pool behind a frontend on the public socket path."""
    root = tmp_path_factory.mktemp("frontend")
    public = str(root / "serve.sock")
    base = ServeConfig(socket_path=public, max_delay_s=0.001)
    with WorkerPool(base, n_workers=2, shared_cache=True) as pool:
        frontend = Frontend(
            pool.worker_paths(), socket_path=public, host="127.0.0.1"
        )
        with BackgroundFrontend(frontend) as background:
            yield pool, background, public


def test_public_endpoints_are_reported(stack):
    _, background, public = stack
    assert f"unix:{public}" in background.endpoints
    assert background.tcp_port


def test_predict_through_the_frontend_is_byte_identical(stack, epochs):
    """Reply bytes pass the hop untouched — parity holds per byte."""
    pool, _, public = stack
    frame = protocol.encode_frame({
        "v": 1, "kind": "predict", "base_freq_ghz": 1.0,
        "target_freqs_ghz": [2.0, 4.0],
        "epochs": [protocol.epoch_to_wire(e) for e in epochs],
        "id": 7,
    })

    def raw_reply(**endpoint):
        with ServeClient.connect(**endpoint) as client:
            client.send_raw(frame)
            return client._file.readline()

    via_frontend = raw_reply(socket_path=public)
    direct = raw_reply(socket_path=pool.worker_paths()[0])
    assert via_frontend == direct


def test_predict_over_the_frontend_tcp_listener(stack, epochs):
    _, background, _ = stack
    client = ServeClient.connect(host="127.0.0.1", port=background.tcp_port)
    with client:
        reply = client.predict(epochs, 1.0, target_freqs_ghz=[2.0])
        assert reply["predicted_ns"]


def test_sessions_land_on_their_shard_through_the_frontend(stack):
    _, _, public = stack
    with ServeClient.connect(socket_path=public) as client:
        for key in ("lusearch", "avrora", "tenant-3"):
            session = client.open_session(session_key=key)
            assert session.session_id.endswith(f"@w{shard_for_key(key, 2)}")
            # The follow-up step/close routes by the id tag: close must
            # reach the same worker, not answer unknown-session.
            assert session.close() == []


def test_one_connection_reaches_every_worker(stack):
    """Session routing fans one client out across the pool's workers."""
    _, _, public = stack
    with ServeClient.connect(socket_path=public) as client:
        seen = set()
        for i in range(8):
            session = client.open_session(session_key=f"run-{i}")
            seen.add(session.session_id.rsplit("@w", 1)[1])
            session.close()
        assert seen == {"0", "1"}


def test_bad_frame_reply_comes_from_the_worker(stack):
    _, _, public = stack
    with ServeClient.connect(socket_path=public) as client:
        client.send_raw(b"{not json\n")
        reply = client.read_reply()
        assert reply["error"]["code"] == "bad-frame"
        assert client.health()["status"] == "ok"  # connection survives


def test_oversized_frame_is_rejected_by_the_frontend(stack, tmp_path):
    # A dedicated frontend with a small frame cap, on the same workers:
    # the cap must fit in the socket buffers so the client's oversized
    # write lands fully before the frontend replies and hangs up.
    pool, _, _ = stack
    capped = str(tmp_path / "capped.sock")
    frontend = Frontend(
        pool.worker_paths(), socket_path=capped, max_frame_bytes=16 * 1024
    )
    with BackgroundFrontend(frontend):
        with ServeClient.connect(socket_path=capped) as client:
            pad = b"x" * (32 * 1024)
            client.send_raw(
                b'{"v":1,"kind":"health","pad":"' + pad + b'","id":1}\n'
            )
            reply = client.read_reply()
            assert reply["error"]["code"] == "bad-frame"
            assert "exceeds" in reply["error"]["message"]
            with pytest.raises(ServeProtocolViolation):
                client.read_reply()  # frontend hangs up, like a worker would
