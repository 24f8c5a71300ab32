"""Synchronous client for the prediction service.

The experiment drivers, the replay-parity harness and the load generator
are all plain blocking code, so the client speaks the NDJSON protocol
over a blocking socket (unix or TCP). One request, one reply — the
server's pipelining exists for concurrent *connections*; a single client
that wants pipelining opens several.

:func:`replay_decisions` is the parity harness: it walks a managed
simulation trace interval by interval, steps a server-side governor
session with exactly the payloads the in-process manager saw, and
returns the decision sequence the server produced.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ReproError
from repro.core.epochs import Epoch
from repro.energy.manager import ManagerConfig, ManagerDecision, interval_epochs
from repro.serve import protocol
from repro.serve.sessions import decision_from_wire
from repro.serve.sharding import shard_for_key
from repro.sim.intervals import IntervalRecord
from repro.sim.trace import SimulationTrace


class ServeRequestError(ReproError):
    """The server answered with a structured error reply."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServeProtocolViolation(ReproError):
    """The server's byte stream violated the protocol (or died mid-reply)."""


class ServeClient:
    """Blocking NDJSON client; use as a context manager or call close().

    A connection that breaks mid-request raises
    :class:`ServeProtocolViolation` or :class:`OSError`; nothing is
    resent, so the caller decides whether a request may be repeated.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 30.0,
    ) -> "ServeClient":
        """Connect over a unix socket (preferred) or TCP."""
        if socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(socket_path)
            except BaseException:
                sock.close()
                raise
            return cls(sock)
        if host is not None and port is not None:
            return cls(socket.create_connection((host, port), timeout=timeout))
        raise ValueError("need socket_path or host+port")

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Raw request/reply
    # ------------------------------------------------------------------

    def request(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Send one request; return the ``result`` object of the reply.

        Raises :class:`ServeRequestError` for error replies and
        :class:`ServeProtocolViolation` if the stream breaks.
        """
        self._next_id += 1
        frame = {
            "v": protocol.PROTOCOL_VERSION,
            "kind": kind,
        }
        frame.update(payload)
        # The correlation id goes last on the wire: the server's
        # prediction cache keys a request by its bytes with a trailing
        # integer id cut off, so only this layout is ever cached.
        frame["id"] = self._next_id
        self.send_raw(protocol.encode_frame(frame))
        reply = self.read_reply()
        if reply.get("id") != self._next_id:
            raise ServeProtocolViolation(
                f"reply id {reply.get('id')!r} does not match request "
                f"id {self._next_id}"
            )
        return self._unwrap(reply)

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes (exposed for fault-injection tests)."""
        self._file.write(data)
        self._file.flush()

    def read_reply(self) -> Dict[str, Any]:
        """Read and decode one reply frame."""
        line = self._file.readline()
        if not line:
            raise ServeProtocolViolation("connection closed by server")
        try:
            return protocol.decode_frame(line)
        except protocol.ProtocolError as exc:
            raise ServeProtocolViolation(str(exc)) from exc

    @staticmethod
    def _unwrap(reply: Dict[str, Any]) -> Dict[str, Any]:
        if reply.get("ok"):
            result = reply.get("result")
            return result if isinstance(result, dict) else {}
        error = reply.get("error") or {}
        raise ServeRequestError(
            error.get("code", "internal"), error.get("message", "unknown error")
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The server's liveness/identity report."""
        return self.request("health")

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot."""
        return self.request("stats")

    def predict(
        self,
        epochs: Sequence[Epoch],
        base_freq_ghz: float,
        predictor: str = "DEP+BURST",
        target_freqs_ghz: Optional[Sequence[float]] = None,
        across_epoch_ctp: bool = True,
    ) -> Dict[str, Any]:
        """Predict the epoch window's duration at each target frequency."""
        payload: Dict[str, Any] = {
            "predictor": predictor,
            "across_epoch_ctp": across_epoch_ctp,
            "base_freq_ghz": base_freq_ghz,
            "epochs": [protocol.epoch_to_wire(epoch) for epoch in epochs],
        }
        if target_freqs_ghz is not None:
            payload["target_freqs_ghz"] = list(target_freqs_ghz)
        return self.request("predict", **payload)

    def open_session(
        self,
        config: Optional[ManagerConfig] = None,
        predictor: str = "DEP+BURST",
        across_epoch_ctp: bool = True,
        session_key: Optional[str] = None,
    ) -> "GovernSession":
        """Open a server-side governor session.

        ``session_key`` places a session on a pool worker
        (:meth:`ShardedServeClient.open_session`). One connection reaches
        one server, so there is nothing to place here: the key is
        accepted so that both clients open sessions through one call,
        and it is not sent.
        """
        wire_config: Dict[str, Any] = {
            "predictor": predictor,
            "across_epoch_ctp": across_epoch_ctp,
        }
        if config is not None:
            wire_config.update(
                tolerable_slowdown=config.tolerable_slowdown,
                hold_off=config.hold_off,
                min_busy_ns=config.min_busy_ns,
                slack_banking=config.slack_banking,
                objective=config.objective,
            )
        result = self.request("govern", op="open", config=wire_config)
        return GovernSession(self, result["session"])


class GovernSession:
    """Client handle of one server-side governor session.

    Mirrors :meth:`repro.energy.manager.EnergyManagerSession.step` so the
    in-process governor and the remote one are drop-in replacements for
    each other in replay code.
    """

    def __init__(self, client: ServeClient, session_id: str) -> None:
        self.client = client
        self.session_id = session_id

    def step(
        self, record: IntervalRecord, epochs: Sequence[Epoch]
    ) -> Optional[float]:
        """Step one quantum; returns the frequency to switch to (or None)."""
        result = self.client.request(
            "govern",
            op="step",
            session=self.session_id,
            record=protocol.record_to_wire(record),
            epochs=[protocol.epoch_to_wire(epoch) for epoch in epochs],
        )
        return result.get("freq_ghz")

    def close(self) -> List[ManagerDecision]:
        """Close the session; return the server's full decision log."""
        result = self.client.request(
            "govern", op="close", session=self.session_id
        )
        return [decision_from_wire(d) for d in result.get("decisions", [])]


class ShardedServeClient:
    """A client holding one connection per pool worker, routed by shard.

    This is how a unix pool is reached: it binds only its workers'
    private sockets (``P.w0`` ... ``P.w{N-1}``), and this client connects
    to each. Stateless requests rotate round-robin across workers;
    sessions are pinned to ``shard_for_key(session_key)``'s worker, and
    their :class:`GovernSession` handle is bound to that worker's
    connection, so stepping routes itself.
    """

    def __init__(self, clients: Sequence[ServeClient]) -> None:
        if not clients:
            raise ValueError("need at least one worker client")
        self.clients = list(clients)
        self._rotation = 0

    @classmethod
    def connect_workers(
        cls,
        worker_paths: Sequence[str],
        timeout: Optional[float] = 30.0,
    ) -> "ShardedServeClient":
        """Connect to every private worker socket of a unix-mode pool."""
        clients: List[ServeClient] = []
        try:
            for path in worker_paths:
                clients.append(
                    ServeClient.connect(socket_path=path, timeout=timeout)
                )
        except BaseException:
            for client in clients:
                client.close()
            raise
        return cls(clients)

    @property
    def n_workers(self) -> int:
        return len(self.clients)

    def _next(self) -> ServeClient:
        client = self.clients[self._rotation % len(self.clients)]
        self._rotation += 1
        return client

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def __enter__(self) -> "ShardedServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._next().health()

    def stats(self) -> Dict[str, Any]:
        """The fleet stats snapshot (any worker merges its peers')."""
        return self._next().stats()

    def predict(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        """Predict on the next worker in rotation (stateless)."""
        return self._next().predict(*args, **kwargs)

    def open_session(
        self,
        config: Optional[ManagerConfig] = None,
        predictor: str = "DEP+BURST",
        across_epoch_ctp: bool = True,
        session_key: Optional[str] = None,
    ) -> "GovernSession":
        """Open a session on its shard's worker (round-robin if keyless)."""
        if session_key is not None:
            client = self.clients[shard_for_key(session_key, len(self.clients))]
        else:
            client = self._next()
        return client.open_session(
            config=config,
            predictor=predictor,
            across_epoch_ctp=across_epoch_ctp,
        )


def replay_decisions(
    client: "ServeClient | ShardedServeClient",
    trace: SimulationTrace,
    config: ManagerConfig,
    predictor: str = "DEP+BURST",
    session_key: Optional[str] = None,
) -> List[ManagerDecision]:
    """Replay a managed trace through a server session; return its decisions.

    Feeds the session exactly what the in-process manager consumed: each
    interval record plus the epoch slice
    :func:`repro.energy.manager.interval_epochs` extracts for it. The
    final record is skipped — the simulator closes it at teardown, after
    the last quantum boundary, so the live governor never saw it. The
    returned sequence must therefore be byte-identical to the decision
    log of the :class:`~repro.energy.manager.EnergyManager` that governed
    the original run.
    """
    session = client.open_session(
        config=config, predictor=predictor, session_key=session_key
    )
    for record in trace.intervals[:-1]:
        session.step(record, interval_epochs(record, trace))
    return session.close()
