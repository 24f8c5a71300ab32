"""Accept-and-hand-off frontend for pooled serve workers.

Unix sockets cannot be shared the way ``SO_REUSEPORT`` shares a TCP
port, so a pool listening on a unix path needs one tiny process in front:
the frontend binds the *public* endpoints, the workers bind private
per-worker sockets (:func:`repro.serve.sharding.worker_socket_path`), and
the frontend relays NDJSON frames between them.

Routing, per the sharding contract:

* every client connection gets a **sticky** worker (round-robin at
  accept) — stateless kinds (``predict``/``health``/``stats``) all go
  there, which preserves batching affinity exactly like a direct
  connection would;
* ``govern`` frames are routed per-frame so one session's whole stream
  lands on its owning worker: ``open`` goes to
  :func:`~repro.serve.sharding.shard_for_key` of the frame's optional
  ``session_key`` (else the sticky worker); ``step``/``close`` go to
  :func:`~repro.serve.sharding.worker_for_session` of the session id.

The relay is full-duplex: one upstream connection per (client, worker)
pair, with a pump task copying replies back as they complete. Reply
*bytes* pass through untouched — the frontend never re-encodes frames,
so byte-identical parity with a direct worker connection holds through
the hop. Clients correlate replies by ``id`` exactly as they do against
a single server (predict replies may already overtake stats replies
there; the frontend adds no new reordering beyond merging per-worker
streams).

A dead worker tears down the client connections it served (mid-stream
state is unrecoverable); the client's reconnect policy takes it from
there.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
from typing import Dict, List, Optional

from repro.serve import protocol
from repro.serve.sharding import shard_for_key, worker_for_session

log = logging.getLogger("repro.serve.frontend")

#: Cheap pre-filter: only frames containing this substring are decoded
#: for routing. False positives (the token inside a string value) cost
#: one json.loads; false negatives are impossible for valid govern
#: frames (JSON strings cannot contain a raw ``"`` without escaping).
_GOVERN_TOKEN = b'"govern"'


class _Upstream:
    """One frontend->worker connection serving one client connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        pump: asyncio.Task,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pump = pump

    async def close(self) -> None:
        self.pump.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self.pump
        self.writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self.writer.wait_closed()


class Frontend:
    """The routing proxy (construct, ``await start()``, ``await stop()``)."""

    def __init__(
        self,
        worker_paths: List[str],
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        if not worker_paths:
            raise ValueError("frontend needs at least one worker endpoint")
        if socket_path is None and host is None:
            raise ValueError("frontend needs a socket_path and/or a host")
        self.worker_paths = list(worker_paths)
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.connections_opened = 0
        self._next_sticky = 0
        self._servers: List[asyncio.AbstractServer] = []
        self._conn_tasks: set = set()

    @property
    def n_workers(self) -> int:
        return len(self.worker_paths)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> List[str]:
        """Bind the public endpoints; return their addresses."""
        endpoints: List[str] = []
        if self.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.socket_path,
                limit=self.max_frame_bytes,
            )
            self._servers.append(server)
            endpoints.append(f"unix:{self.socket_path}")
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=self.max_frame_bytes,
            )
            self._servers.append(server)
            for sock in server.sockets:
                host, port = sock.getsockname()[:2]
                endpoints.append(f"tcp:{host}:{port}")
        log.info("repro-serve frontend routing %s -> %d workers",
                 ", ".join(endpoints), self.n_workers)
        return endpoints

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound public TCP port (after start), if TCP is enabled."""
        for server in self._servers:
            for sock in server.sockets:
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[1]
        return None

    async def stop(self) -> None:
        """Close the public listeners and all relayed connections."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Relay
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_opened += 1
        sticky = self._next_sticky % self.n_workers
        self._next_sticky += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        upstreams: Dict[int, _Upstream] = {}
        try:
            await self._relay_loop(reader, writer, write_lock, upstreams, sticky)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for upstream in upstreams.values():
                await upstream.close()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _relay_loop(
        self, reader, writer, write_lock, upstreams, sticky
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Oversized frame: mirror the worker's own bad-frame
                # behaviour — reply and hang up, the stream is lost.
                await self._send(
                    writer, write_lock,
                    protocol.encode_frame(protocol.error_reply(
                        None, "bad-frame",
                        f"frame exceeds {self.max_frame_bytes} bytes",
                    )),
                )
                return
            if not line:
                return  # clean EOF
            if not line.endswith(b"\n"):
                await self._send(
                    writer, write_lock,
                    protocol.encode_frame(protocol.error_reply(
                        None, "bad-frame",
                        "truncated frame (EOF before newline)",
                    )),
                )
                return
            worker_id = self._route(line, sticky)
            upstream = upstreams.get(worker_id)
            if upstream is None:
                upstream = await self._connect_upstream(
                    worker_id, writer, write_lock
                )
                upstreams[worker_id] = upstream
            upstream.writer.write(line)
            await upstream.writer.drain()

    def _route(self, line: bytes, sticky: int) -> int:
        """Pick the worker one frame belongs to."""
        if _GOVERN_TOKEN not in line:
            return sticky
        try:
            frame = json.loads(line)
        except (ValueError, RecursionError):
            return sticky  # the worker produces the authoritative error
        if not isinstance(frame, dict) or frame.get("kind") != "govern":
            return sticky
        op = frame.get("op")
        if op == "open":
            session_key = frame.get("session_key")
            if isinstance(session_key, str) and session_key:
                return shard_for_key(session_key, self.n_workers)
            return sticky
        session = frame.get("session")
        if isinstance(session, str):
            return worker_for_session(session, self.n_workers)
        return sticky

    async def _connect_upstream(
        self, worker_id: int, writer, write_lock
    ) -> _Upstream:
        up_reader, up_writer = await asyncio.open_unix_connection(
            self.worker_paths[worker_id], limit=self.max_frame_bytes
        )
        pump = asyncio.get_running_loop().create_task(
            self._pump_replies(up_reader, writer, write_lock)
        )
        return _Upstream(up_reader, up_writer, pump)

    async def _pump_replies(self, up_reader, writer, write_lock) -> None:
        """Copy one worker's reply stream back to the client, verbatim."""
        while True:
            line = await up_reader.readline()
            if not line or not line.endswith(b"\n"):
                # Worker died (or truncated a reply): the client's view of
                # its sessions there is unrecoverable — drop the client
                # connection so its reconnect policy can engage.
                writer.close()
                return
            await self._send(writer, write_lock, line)

    @staticmethod
    async def _send(writer, write_lock, data: bytes) -> None:
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except ConnectionError:
                pass


class BackgroundFrontend:
    """A :class:`Frontend` running on its own event-loop thread.

    Mirrors :class:`repro.serve.background.BackgroundServer` so the
    synchronous pool driver can stand the routing tier up in-process.
    """

    def __init__(self, frontend: Frontend) -> None:
        self.frontend = frontend
        self.endpoints: List[str] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> List[str]:
        if self._loop is not None:
            raise RuntimeError("frontend already started")
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=self._run_loop, args=(loop,),
            name="repro-serve-frontend", daemon=True,
        )
        thread.start()
        self._loop, self._thread = loop, thread
        future = asyncio.run_coroutine_threadsafe(self.frontend.start(), loop)
        try:
            self.endpoints = future.result(timeout=30)
        except Exception:
            self.stop()
            raise
        return self.endpoints

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self.frontend.stop(), loop
            ).result(timeout=30)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=30)
            loop.close()

    @property
    def tcp_port(self) -> Optional[int]:
        return self.frontend.tcp_port

    def __enter__(self) -> "BackgroundFrontend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @staticmethod
    def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
