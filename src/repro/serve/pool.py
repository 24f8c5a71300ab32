"""Multi-process worker pool for the serve tier.

Prediction math is GIL-bound NumPy, so one asyncio process saturates one
core; scaling past that means *processes*. :class:`WorkerPool` spawns N
:class:`~repro.serve.server.Server` workers (spawn context — no forked
event-loop state), each with:

* its own listeners — a private unix socket derived from the pool's
  path (``/run/repro.sock`` -> ``/run/repro.sock.w0`` ...), and/or the
  shared TCP port bound with ``SO_REUSEPORT`` so the kernel balances
  accepted connections across workers. Nothing binds the pool's path
  itself: clients reach a unix pool through its worker paths
  (:meth:`repro.serve.client.ShardedServeClient.connect_workers`);
* a ``worker_id`` so minted session ids carry their worker
  (:mod:`repro.serve.sharding`);
* a shared fleet-metrics directory (:mod:`repro.serve.fleet`) — created
  and owned by the pool when the config does not name one — so ``stats``
  on any worker reports the whole pool;
* optionally a shared prediction-cache directory
  (:mod:`repro.serve.predcache`), same ownership rule.

The pool is synchronous (the CLI and the test suite drive it from
blocking code): ``start()`` spawns and waits for every worker to answer
``health``; ``stop()`` sends SIGTERM, joins, and escalates to kill after
a timeout.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import logging
import multiprocessing
import os
import shutil
import signal
import socket
import sys
import tempfile
import time
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.serve.server import ServeConfig, Server
from repro.serve.sharding import worker_socket_path

log = logging.getLogger("repro.serve.pool")


def resolve_tcp_port(host: str) -> int:
    """Pick a concrete free port for a reuse-port worker group.

    Ephemeral binding (port 0) would hand every worker a *different*
    port; a shared listener needs one number up front. The classic
    bind-close-reuse race is acceptable for the pool's callers (tests,
    benchmarks, CLIs on loopback).
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def worker_config(base: ServeConfig, worker_id: int, n_workers: int,
                  fleet_dir: str,
                  predict_cache_dir: Optional[str]) -> ServeConfig:
    """Derive one worker's config from the pool's config."""
    changes = dict(
        worker_id=worker_id,
        n_workers=n_workers,
        fleet_dir=fleet_dir,
        predict_cache_dir=predict_cache_dir,
    )
    if base.socket_path is not None:
        changes["socket_path"] = worker_socket_path(base.socket_path, worker_id)
    if base.host is not None:
        changes["reuse_port"] = True
    return dataclasses.replace(base, **changes)


def _worker_main(config: ServeConfig) -> None:
    """Entry point of one spawned worker process."""
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    asyncio.run(_worker_run(config))


async def _worker_run(config: ServeConfig) -> None:
    server = Server(config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        await server.stop()
        if config.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(config.socket_path)


class WorkerPool:
    """N serve workers sharing a fleet dir, and optionally a TCP port and a cache."""

    def __init__(
        self,
        base: ServeConfig,
        n_workers: int,
        shared_cache: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if base.socket_path is None and base.host is None:
            raise ConfigError("pool config needs a socket_path or a host")
        if base.host is not None and base.port == 0:
            base = dataclasses.replace(base, port=resolve_tcp_port(base.host))
        self.base = base
        self.n_workers = n_workers
        self._own_dir: Optional[str] = None
        fleet_dir = base.fleet_dir
        predict_cache_dir = base.predict_cache_dir
        if fleet_dir is None or (shared_cache and predict_cache_dir is None):
            self._own_dir = tempfile.mkdtemp(prefix="repro-serve-pool-")
            if fleet_dir is None:
                fleet_dir = os.path.join(self._own_dir, "fleet")
                os.mkdir(fleet_dir)
            if shared_cache and predict_cache_dir is None:
                predict_cache_dir = os.path.join(self._own_dir, "predcache")
                os.mkdir(predict_cache_dir)
        self.fleet_dir = fleet_dir
        self.predict_cache_dir = predict_cache_dir
        self.worker_configs = [
            worker_config(base, i, n_workers, fleet_dir, predict_cache_dir)
            for i in range(n_workers)
        ]
        self._processes: List[multiprocessing.Process] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def worker_paths(self) -> List[str]:
        """The workers' private unix-socket paths (empty for a TCP-only pool)."""
        return [c.socket_path for c in self.worker_configs
                if c.socket_path is not None]

    def worker_endpoint(self, worker_id: int) -> dict:
        """connect() kwargs reaching one specific worker directly.

        A worker's private unix path pins exactly. A TCP-only pool has
        only the shared reuse-port, so there 'directly' means whichever
        worker the kernel hands the connection to.
        """
        config = self.worker_configs[worker_id]
        if config.socket_path is not None:
            return {"socket_path": config.socket_path}
        return {"host": config.host, "port": config.port}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, ready_timeout: float = 60.0) -> None:
        """Spawn every worker and wait until each answers ``health``.

        If a spawn or the wait fails, the workers already spawned are
        stopped and the pool's own directory is removed before the error
        propagates.
        """
        if self._processes:
            raise RuntimeError("pool already started")
        context = multiprocessing.get_context("spawn")
        try:
            for config in self.worker_configs:
                process = context.Process(
                    target=_worker_main, args=(config,), daemon=True,
                    name=f"repro-serve-w{config.worker_id}",
                )
                process.start()
                self._processes.append(process)
            self._wait_ready(ready_timeout)
        except Exception:
            self.stop()
            raise

    def _wait_ready(self, timeout: float) -> None:
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + timeout
        for worker_id in range(self.n_workers):
            endpoint = self.worker_endpoint(worker_id)
            while True:
                process = self._processes[worker_id]
                if not process.is_alive():
                    raise RuntimeError(
                        f"worker {worker_id} exited with code "
                        f"{process.exitcode} during startup"
                    )
                try:
                    with ServeClient.connect(timeout=5.0, **endpoint) as probe:
                        probe.health()
                    break
                except (OSError, ConnectionError):
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"worker {worker_id} not ready within {timeout}s"
                        ) from None
                    time.sleep(0.05)

    def alive(self) -> List[bool]:
        return [p.is_alive() for p in self._processes]

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM every worker; join; escalate to kill; clean up."""
        for process in self._processes:
            if process.is_alive():
                with contextlib.suppress(OSError, ValueError):
                    process.terminate()
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                log.warning("worker %s ignored SIGTERM; killing", process.name)
                with contextlib.suppress(OSError, ValueError):
                    process.kill()
                process.join(timeout=5.0)
        self._processes.clear()
        for config in self.worker_configs:
            if config.socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(config.socket_path)
        if self._own_dir is not None:
            shutil.rmtree(self._own_dir, ignore_errors=True)
            self._own_dir = None

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
