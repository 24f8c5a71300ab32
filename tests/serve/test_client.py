"""The blocking NDJSON client: construction, faults and endpoints."""

import os
import socket

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.core.predictors import make_predictor
from repro.energy.manager import EnergyManager, ManagerConfig
from repro.serve import protocol
from repro.serve.background import BackgroundServer
from repro.serve.client import (
    ServeClient,
    ServeProtocolViolation,
    ServeRequestError,
    replay_decisions,
)
from repro.serve.server import ServeConfig
from repro.sim.run import simulate, simulate_managed
from tests.util import make_program, memory, requires_af_unix


def test_connect_requires_an_endpoint():
    with pytest.raises(ValueError, match="socket_path or host\\+port"):
        ServeClient.connect()


# ----------------------------------------------------------------------
# Faults, against a scripted peer socket (no server process)
# ----------------------------------------------------------------------


class _scripted_client:
    """A client whose socket already holds the given reply bytes.

    The peer's write side is shut down after scripting, so the client
    sees the replies and then end-of-stream; the peer's read side stays
    open so the client's own request writes never hit a broken pipe.
    """

    def __init__(self, *reply_frames: bytes) -> None:
        ours, self._peer = socket.socketpair()
        for frame in reply_frames:
            self._peer.sendall(frame)
        self._peer.shutdown(socket.SHUT_WR)
        self.client = ServeClient(ours)

    def __enter__(self) -> ServeClient:
        return self.client

    def __exit__(self, *exc_info) -> None:
        self.client.close()
        self._peer.close()


def _reply(request_id, **fields):
    frame = {"v": protocol.PROTOCOL_VERSION, "id": request_id}
    frame.update(fields)
    return protocol.encode_frame(frame)


def test_reply_id_mismatch_is_protocol_violation():
    with _scripted_client(_reply(99, ok=True, result={})) as client:
        with pytest.raises(ServeProtocolViolation, match="does not match"):
            client.request("health")


def test_closed_connection_is_protocol_violation():
    with _scripted_client() as client:  # peer closed without replying
        with pytest.raises(ServeProtocolViolation, match="closed by server"):
            client.request("health")


def test_undecodable_reply_is_protocol_violation():
    with _scripted_client(b"this is not json\n") as client:
        with pytest.raises(ServeProtocolViolation):
            client.request("health")


def test_error_reply_raises_with_code_and_message():
    frame = _reply(
        1, ok=False, error={"code": "bad_request", "message": "no such kind"}
    )
    with _scripted_client(frame) as client:
        with pytest.raises(ServeRequestError, match=r"\[bad_request\]") as exc:
            client.request("bogus")
    assert exc.value.code == "bad_request"
    assert exc.value.message == "no such kind"


def test_non_dict_result_unwraps_to_empty_dict():
    with _scripted_client(_reply(1, ok=True, result=[1, 2])) as client:
        assert client.request("health") == {}


def test_close_is_idempotent():
    with _scripted_client() as client:
        client.close()
        client.close()


# ----------------------------------------------------------------------
# Endpoints, against a live background server
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("platform has no AF_UNIX sockets")
    path = str(tmp_path_factory.mktemp("serve") / "client.sock")
    with BackgroundServer(ServeConfig(socket_path=path)) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient.connect(socket_path=server.config.socket_path) as c:
        yield c


def _short_trace():
    program = make_program(
        [[memory(30_000, cpi=0.5, chains=[300.0] * 20) for _ in range(12)]]
    )
    return simulate(program, 2.0, quantum_ns=5.0e4)


def test_health_and_stats_endpoints(client):
    assert client.health()  # non-empty identity payload
    assert isinstance(client.stats(), dict)


def test_predict_matches_in_process_predictor(client):
    trace = _short_trace().trace
    from repro.core.epochs import extract_epochs

    epochs = extract_epochs(trace.events)
    targets = [1.0, 3.0]
    reply = client.predict(epochs, 2.0, target_freqs_ghz=targets)
    expected = [
        make_predictor("DEP+BURST").predict_epochs(epochs, 2.0, t)
        for t in targets
    ]
    assert reply["predicted_ns"] == expected


def test_unknown_predictor_is_request_error(client):
    trace = _short_trace().trace
    from repro.core.epochs import extract_epochs

    with pytest.raises(ServeRequestError):
        client.predict(extract_epochs(trace.events), 2.0, predictor="nope")


def test_govern_session_step_close_round_trip(client):
    spec = haswell_i7_4770k()
    config = ManagerConfig(tolerable_slowdown=0.10)
    program = make_program(
        [
            [memory(30_000, cpi=0.5, chains=[300.0] * 40) for _ in range(30)]
            for _ in range(2)
        ]
    )
    manager = EnergyManager(spec, config)
    result = simulate_managed(program, manager, spec=spec, quantum_ns=2.5e5)
    assert manager.decisions
    remote = replay_decisions(client, result.trace, config)
    assert remote == manager.decisions


def test_replay_skips_the_final_interval_record():
    """The harness feeds every interval except the teardown-closed last."""

    class StubSession:
        def __init__(self):
            self.steps = 0

        def step(self, record, epochs):
            self.steps += 1
            return None

        def close(self):
            return []

    class StubClient:
        def __init__(self):
            self.session = StubSession()

        def open_session(self, config=None, predictor="DEP+BURST",
                         session_key=None):
            return self.session

    trace = _short_trace().trace
    assert len(trace.intervals) > 1
    stub = StubClient()
    assert replay_decisions(stub, trace, ManagerConfig()) == []
    assert stub.session.steps == len(trace.intervals) - 1


# ----------------------------------------------------------------------
# Broken connections, against real servers
# ----------------------------------------------------------------------


@requires_af_unix
class TestReconnect:
    """The client never re-dials or resends: a failed connect and a
    request over a connection whose server went away both raise."""

    def test_connect_without_policy_fails_fast(self, tmp_path):
        with pytest.raises(OSError):
            ServeClient.connect(socket_path=str(tmp_path / "never-bound.sock"))

    def test_exhausted_policy_surfaces_the_last_error(self, tmp_path):
        """A request after the server went away raises, even once a new
        server listens on the same path: nothing re-dials."""
        path = str(tmp_path / "gone.sock")
        server = BackgroundServer(ServeConfig(socket_path=path))
        server.start()
        client = ServeClient.connect(socket_path=path)
        try:
            assert client.health()["status"] == "ok"
            server.stop()
            os.unlink(path)
            with pytest.raises((ServeProtocolViolation, OSError)):
                client.health()
            with BackgroundServer(ServeConfig(socket_path=path)):
                with pytest.raises((ServeProtocolViolation, OSError)):
                    client.health()
        finally:
            client.close()
