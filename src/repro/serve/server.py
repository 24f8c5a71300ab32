"""The asyncio prediction server.

One process, one event loop, no worker threads: prediction math is
GIL-bound NumPy, so the win comes from coalescing concurrent requests
into vectorized batches (:mod:`repro.serve.batching`), not from
parallelism. The server listens on a unix socket and/or TCP and speaks
the NDJSON protocol of :mod:`repro.serve.protocol`.

Failure containment, per the subsystem contract:

* malformed JSON or schema violations -> structured error reply, the
  connection lives on;
* an oversized frame or a frame truncated by EOF -> best-effort error
  reply, then the connection is closed (the byte stream cannot be
  resynchronized reliably);
* predictor exceptions -> ``predict-error`` replies, connection lives on;
* any other failure while parsing or answering a frame -> ``internal``
  reply, connection lives on;
* per-connection in-flight ``predict`` requests are capped
  (``queue_depth``); excess requests are shed immediately with
  ``overloaded`` replies — the server never buffers without bound. Reply
  writes go through ``drain()``, so a slow reader additionally exerts
  TCP/socket backpressure instead of growing the write buffer.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import __version__
from repro.common.errors import ConfigError, ReproError
from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.core.predictors import get_predictor, predictor_names
from repro.core.vectorized import PredictJob
from repro.serve import protocol
from repro.serve.batching import PredictBatcher
from repro.serve.fleet import FleetDirectory
from repro.serve.metrics import (
    MetricsRegistry,
    merge_snapshots,
    worker_summary,
)
from repro.serve.predcache import PredictionCache
from repro.serve.protocol import ProtocolError
from repro.serve.sessions import SessionStore, decision_to_wire

log = logging.getLogger("repro.serve")

#: Reply-envelope bytes around a keyed predict's result fragment.
#: Concatenation must reproduce ``encode_frame(ok_reply(...))`` exactly —
#: same key order (v, id, ok, result), same separators — so cached
#: replies stay byte-identical to uncached ones; test_server pins this.
_REPLY_HEAD = ('{"v":%d,"id":' % protocol.PROTOCOL_VERSION).encode("ascii")
_REPLY_MID = b',"ok":true,"result":'


def _splice(id_digits: bytes, fragment: str) -> bytes:
    """The ok reply to a keyed predict, from its id and result fragment."""
    return (_REPLY_HEAD + id_digits + _REPLY_MID
            + fragment.encode("utf-8") + b"}\n")


@dataclass
class ServeConfig:
    """Everything a server instance needs to listen and behave."""

    #: Unix socket path (preferred transport; None disables).
    socket_path: Optional[str] = None
    #: TCP host (None disables TCP; port 0 picks an ephemeral port).
    host: Optional[str] = None
    port: int = 0
    #: Most predict jobs one vectorized batch evaluates.
    max_batch: int = 64
    #: Hard cap on one frame's size (bytes).
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Per-connection in-flight predict cap; excess is shed as overloaded.
    queue_depth: int = 64
    #: Cap on simultaneously open governor sessions.
    max_sessions: int = 1024
    #: Seconds between structured stats log lines (0 disables).
    log_interval_s: float = 0.0
    #: Bind TCP with SO_REUSEPORT so pool workers share one listening
    #: port (the kernel balances accepted connections across them).
    reuse_port: bool = False
    #: This worker's index in a pool (None = standalone server).
    worker_id: Optional[int] = None
    #: Pool size (1 = standalone).
    n_workers: int = 1
    #: Shared directory for cross-worker metrics snapshots (None disables
    #: fleet aggregation; ``stats`` then reports this worker only).
    fleet_dir: Optional[str] = None
    #: Seconds between periodic fleet-metrics publishes.
    fleet_publish_interval_s: float = 1.0
    #: Shared directory of the cross-worker prediction cache (None
    #: disables the file tier).
    predict_cache_dir: Optional[str] = None
    #: Entries of the in-process prediction-cache LRU tier (0 disables;
    #: the cache as a whole is off when this is 0 and no dir is set).
    predict_cache_mem: int = 0
    #: Machine whose DVFS range the predictions and sessions use.
    spec: MachineSpec = field(default_factory=haswell_i7_4770k)

    def __post_init__(self) -> None:
        if self.socket_path is None and self.host is None:
            raise ConfigError("serve config needs a socket_path and/or a host")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if self.worker_id is not None and not (
            0 <= self.worker_id < self.n_workers
        ):
            raise ConfigError(
                f"worker_id {self.worker_id} outside pool of {self.n_workers}"
            )
        if self.predict_cache_mem < 0:
            raise ConfigError("predict_cache_mem must be >= 0")

    @property
    def predict_cache_enabled(self) -> bool:
        return self.predict_cache_mem > 0 or self.predict_cache_dir is not None


class Server:
    """The prediction service (construct, ``await start()``, ``await stop()``)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        #: The spec's DVFS set points; MachineSpec is frozen.
        self.frequencies = config.spec.frequencies()
        self.metrics = MetricsRegistry(max_batch=config.max_batch)
        self.batcher = PredictBatcher(
            max_batch=config.max_batch, metrics=self.metrics
        )
        self.sessions = SessionStore(
            config.spec,
            max_sessions=config.max_sessions,
            worker_id=config.worker_id,
        )
        self.prediction_cache: Optional[PredictionCache] = None
        if config.predict_cache_enabled:
            self.prediction_cache = PredictionCache(
                config.spec,
                shared_dir=config.predict_cache_dir,
                max_memory_entries=config.predict_cache_mem,
            )
        self.fleet: Optional[FleetDirectory] = None
        if config.fleet_dir is not None:
            self.fleet = FleetDirectory(config.fleet_dir)
        self._predictors: Dict[Tuple[str, bool], object] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._log_task: Optional[asyncio.Task] = None
        self._fleet_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> List[str]:
        """Bind all configured endpoints; return their addresses."""
        endpoints: List[str] = []
        if self.config.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.socket_path,
                limit=self.config.max_frame_bytes,
            )
            self._servers.append(server)
            endpoints.append(f"unix:{self.config.socket_path}")
        if self.config.host is not None:
            kwargs: Dict[str, Any] = {}
            if self.config.reuse_port:
                kwargs["reuse_port"] = True
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_frame_bytes,
                **kwargs,
            )
            self._servers.append(server)
            for sock in server.sockets:
                host, port = sock.getsockname()[:2]
                endpoints.append(f"tcp:{host}:{port}")
        if self.config.log_interval_s > 0:
            self._log_task = asyncio.get_running_loop().create_task(
                self._log_periodically()
            )
        if self.fleet is not None:
            self._publish_fleet()
            if self.config.fleet_publish_interval_s > 0:
                self._fleet_task = asyncio.get_running_loop().create_task(
                    self._publish_periodically()
                )
        log.info("repro-serve listening on %s", ", ".join(endpoints))
        return endpoints

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (after start), if TCP is enabled."""
        for server in self._servers:
            for sock in server.sockets:
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[1]
        return None

    async def serve_forever(self) -> None:
        """Block until cancelled."""
        if not self._servers:
            await self.start()
        await asyncio.gather(*(s.serve_forever() for s in self._servers))

    async def stop(self) -> None:
        """Close listeners and all live connections."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        if self._log_task is not None:
            self._log_task.cancel()
            self._log_task = None
        if self._fleet_task is not None:
            self._fleet_task.cancel()
            self._fleet_task = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.fleet is not None:
            self._publish_fleet()

    async def _log_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.config.log_interval_s)
            log.info("%s", self.metrics.log_line())

    def _publish_fleet(self) -> None:
        assert self.fleet is not None
        try:
            self.fleet.publish(
                self.config.worker_id or 0, self.metrics.snapshot()
            )
        except OSError:  # a torn-down fleet dir must not kill the worker
            log.warning("fleet publish failed", exc_info=True)

    async def _publish_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.config.fleet_publish_interval_s)
            self._publish_fleet()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_opened += 1
        self.metrics.connections_active += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        inflight = [0]  # mutable so predict tasks can decrement
        request_tasks: set = set()
        try:
            await self._read_loop(reader, writer, write_lock, inflight,
                                  request_tasks)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for pending in request_tasks:
                pending.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # A shutdown cancelling the task here must not skip the
                # accounting below: the connection is closing anyway.
                pass
            self.metrics.connections_active -= 1
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_loop(
        self, reader, writer, write_lock, inflight, request_tasks
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Frame exceeded max_frame_bytes: the stream position is
                # unknowable now, so reply and hang up.
                self.metrics.frames_rejected += 1
                await self._send(
                    writer, write_lock,
                    protocol.error_reply(
                        None, "bad-frame",
                        f"frame exceeds {self.config.max_frame_bytes} bytes",
                    ),
                )
                return
            if not line:
                return  # clean EOF
            if not line.endswith(b"\n"):
                # EOF in the middle of a frame: truncated.
                self.metrics.frames_rejected += 1
                await self._send(
                    writer, write_lock,
                    protocol.error_reply(
                        None, "bad-frame", "truncated frame (EOF before newline)"
                    ),
                )
                return
            await self._dispatch(
                line, writer, write_lock, inflight, request_tasks
            )

    async def _send(self, writer, write_lock, payload: Mapping[str, Any]) -> None:
        """Serialize one reply; drain so slow readers exert backpressure."""
        await self._send_bytes(writer, write_lock, protocol.encode_frame(payload))

    async def _send_bytes(self, writer, write_lock, data: bytes) -> None:
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _dispatch(
        self, line, writer, write_lock, inflight, request_tasks
    ) -> None:
        started = time.perf_counter()
        cache = self.prediction_cache
        keyed = cache.split_key(line) if cache is not None else None
        if keyed is not None:
            # A repeat of an answered predict (equal bytes apart from its
            # trailing id) replays the stored result without any JSON
            # decode, whichever tier holds it.
            fragment = cache.lookup(keyed[0])
            if fragment is not None:
                self.metrics.predict_cache_hits += 1
                self.metrics.endpoint("predict").observe(
                    time.perf_counter() - started
                )
                await self._send_bytes(
                    writer, write_lock, _splice(keyed[1], fragment)
                )
                return
            self.metrics.predict_cache_misses += 1
        frame: Optional[Dict[str, Any]] = None
        try:
            frame = protocol.decode_frame(line)
            kind = protocol.check_envelope(frame)
        except ProtocolError as exc:
            self.metrics.frames_rejected += 1
            self.metrics.endpoint("invalid").observe(
                time.perf_counter() - started, error_code=exc.code
            )
            await self._send(
                writer, write_lock, protocol.error_reply(frame, exc.code, exc.message)
            )
            return

        if kind == "predict":
            await self._dispatch_predict(
                frame, writer, write_lock, inflight, request_tasks, started,
                keyed,
            )
            return

        try:
            if kind == "health":
                result = self._health_result()
            elif kind == "stats":
                result = self._stats_result()
            else:  # govern
                result = self._govern(frame)
            reply = protocol.ok_reply(frame, result)
            code = None
        except ProtocolError as exc:
            reply = protocol.error_reply(frame, exc.code, exc.message)
            code = exc.code
        except ReproError as exc:
            reply = protocol.error_reply(frame, "predict-error", str(exc))
            code = "predict-error"
        except Exception as exc:  # noqa: BLE001 — connection must survive
            log.exception("internal error handling %s", kind)
            reply = protocol.error_reply(frame, "internal", repr(exc))
            code = "internal"
        if code == "overloaded":
            self.metrics.overloaded += 1
        self.metrics.endpoint(kind).observe(
            time.perf_counter() - started, error_code=code
        )
        await self._send(writer, write_lock, reply)

    # ------------------------------------------------------------------
    # predict
    # ------------------------------------------------------------------

    async def _dispatch_predict(
        self, frame, writer, write_lock, inflight, request_tasks, started,
        keyed: Optional[Tuple[str, bytes]],
    ) -> None:
        try:
            job = self._parse_predict(frame)
        except Exception as exc:  # noqa: BLE001 — connection must survive
            if isinstance(exc, ProtocolError):
                reply = protocol.error_reply(frame, exc.code, exc.message)
            else:
                log.exception("internal error parsing predict")
                reply = protocol.error_reply(frame, "internal", repr(exc))
            self.metrics.endpoint("predict").observe(
                time.perf_counter() - started, error_code=reply["error"]["code"]
            )
            await self._send(writer, write_lock, reply)
            return
        if inflight[0] >= self.config.queue_depth:
            self.metrics.overloaded += 1
            self.metrics.endpoint("predict").observe(
                time.perf_counter() - started, error_code="overloaded"
            )
            await self._send(
                writer, write_lock,
                protocol.error_reply(
                    frame, "overloaded",
                    f"{inflight[0]} predict request(s) already in flight on "
                    f"this connection (queue_depth={self.config.queue_depth})",
                ),
            )
            return
        inflight[0] += 1
        task = asyncio.get_running_loop().create_task(
            self._predict_task(
                frame, job, writer, write_lock, inflight, started, keyed
            )
        )
        request_tasks.add(task)
        task.add_done_callback(request_tasks.discard)

    async def _predict_task(
        self, frame, job: PredictJob, writer, write_lock, inflight, started,
        keyed: Optional[Tuple[str, bytes]],
    ) -> None:
        try:
            data: Optional[bytes] = None
            try:
                predicted = await self.batcher.submit(job)
                result = {
                    "predictor": job.predictor.name,
                    "base_freq_ghz": job.base_freq_ghz,
                    "target_freqs_ghz": list(job.target_freqs_ghz),
                    "predicted_ns": predicted,
                }
                if keyed is not None:
                    # Serialize the result once; the stored fragment is the
                    # exact bytes of this reply, so future hits replay them
                    # byte-identically.
                    fragment = self.prediction_cache.record(keyed[0], result)
                    self.metrics.predict_cache_stores += 1
                    data = _splice(keyed[1], fragment)
                else:
                    reply = protocol.ok_reply(frame, result)
                code = None
            except asyncio.CancelledError:
                raise
            except ReproError as exc:
                reply = protocol.error_reply(frame, "predict-error", str(exc))
                code = "predict-error"
            except Exception as exc:  # noqa: BLE001
                log.exception("internal error in predict batch")
                reply = protocol.error_reply(frame, "internal", repr(exc))
                code = "internal"
            self.metrics.endpoint("predict").observe(
                time.perf_counter() - started, error_code=code
            )
            if data is None:
                data = protocol.encode_frame(reply)
            await self._send_bytes(writer, write_lock, data)
        finally:
            inflight[0] -= 1

    def _parse_predict(self, frame: Mapping[str, Any]) -> PredictJob:
        name = frame.get("predictor", "DEP+BURST")
        if not isinstance(name, str):
            raise ProtocolError("bad-request", "predictor must be a string")
        ctp = frame.get("across_epoch_ctp", True)
        if not isinstance(ctp, bool):
            raise ProtocolError(
                "bad-request", "across_epoch_ctp must be a boolean"
            )
        predictor = self._predictor(name, ctp)
        base = protocol.require_number(
            frame.get("base_freq_ghz"), "base_freq_ghz", minimum=1e-9
        )
        targets = protocol.target_freqs_from_wire(
            frame.get("target_freqs_ghz"), self.frequencies
        )
        epochs = protocol.epochs_from_wire(frame.get("epochs"))
        return PredictJob(
            predictor=predictor,
            epochs=epochs,
            base_freq_ghz=base,
            target_freqs_ghz=tuple(targets),
        )

    def _predictor(self, name: str, across_epoch_ctp: bool):
        key = (name.strip().upper(), across_epoch_ctp)
        predictor = self._predictors.get(key)
        if predictor is None:
            try:
                predictor = get_predictor(name, across_epoch_ctp=across_epoch_ctp)
            except ConfigError as exc:
                raise ProtocolError("bad-request", str(exc)) from exc
            self._predictors[key] = predictor
        return predictor

    # ------------------------------------------------------------------
    # govern / health
    # ------------------------------------------------------------------

    def _govern(self, frame: Mapping[str, Any]) -> Dict[str, Any]:
        op = frame.get("op")
        if op == "open":
            session_id = self.sessions.open(frame.get("config"))
            self.metrics.sessions_opened += 1
            self.metrics.sessions_active = len(self.sessions)
            return {
                "session": session_id,
                "frequencies_ghz": list(self.frequencies),
            }
        if op == "step":
            record = protocol.record_from_wire(frame.get("record"))
            epochs = protocol.epochs_from_wire(frame.get("epochs", []))
            freq, decision = self.sessions.step(
                frame.get("session"), record, epochs
            )
            return {
                "freq_ghz": freq,
                "decision": decision_to_wire(decision) if decision else None,
            }
        if op == "close":
            session = self.sessions.close(frame.get("session"))
            self.metrics.sessions_active = len(self.sessions)
            return {
                "decisions": [
                    decision_to_wire(d) for d in session.decisions
                ],
            }
        raise ProtocolError(
            "bad-request",
            f"unknown govern op {op!r}; expected 'open', 'step' or 'close'",
        )

    def _health_result(self) -> Dict[str, Any]:
        result = {
            "status": "ok",
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.time() - self.metrics.started_at,
            "frequencies_ghz": list(self.frequencies),
            "predictors": predictor_names(),
            "sessions_active": len(self.sessions),
            "batch": {"max_batch": self.config.max_batch},
        }
        if self.config.worker_id is not None:
            result["worker_id"] = self.config.worker_id
            result["n_workers"] = self.config.n_workers
        return result

    def _stats_result(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        if self.prediction_cache is not None:
            snapshot["predict_cache"]["tiers"] = (
                self.prediction_cache.stats()["tiers"]
            )
        if self.fleet is None:
            return snapshot
        # Publish first so peers (and the fleet view below) see this
        # worker's numbers as of *this* request, not the last interval.
        self._publish_fleet()
        peers = self.fleet.read_all()
        snapshot["worker_id"] = self.config.worker_id
        snapshot["n_workers"] = self.config.n_workers
        snapshot["per_worker"] = {
            str(i): worker_summary(s) for i, s in sorted(peers.items())
        }
        snapshot["fleet"] = merge_snapshots(peers.values())
        return snapshot
