"""``repro-serve``: run the online prediction service.

Examples::

    repro-serve --socket /tmp/repro.sock
    repro-serve --host 127.0.0.1 --port 7091 --max-batch 128
    repro-serve --socket /tmp/repro.sock --log-interval 10
    repro-serve --socket /tmp/repro.sock --workers 4 --shared-predict-cache

With ``--workers N`` (N > 1) the process becomes a pool driver: it
spawns N worker processes (:mod:`repro.serve.pool`) that share fleet
metrics, so ``stats`` against any worker reports the whole pool. With
``--socket P`` each worker binds its own path ``P.w0`` ... ``P.w{N-1}``
(the ready line lists them, and nothing binds ``P``); clients reach the
pool with :meth:`repro.serve.client.ShardedServeClient.connect_workers`.
With ``--host`` every worker also binds the one TCP port via
``SO_REUSEPORT``.

The process runs until SIGINT/SIGTERM, then shuts down cleanly (closing
listeners, live connections and — in pool mode — every worker).
``--profile`` wraps the whole run in cProfile like the other repro CLIs.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging
import os
import signal
import sys
import threading

from repro.common.errors import ConfigError
from repro.common.profiling import UNSET, resolve_profile_path, run_maybe_profiled
from repro.serve.pool import WorkerPool
from repro.serve.server import ServeConfig, Server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve DVFS predictions and governor decisions "
        "(newline-delimited JSON over unix socket and/or TCP).",
    )
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="unix socket to listen on")
    parser.add_argument("--host", default=None,
                        help="TCP host to listen on (e.g. 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: ephemeral)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="max predict requests per vectorized batch")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="per-connection in-flight predict cap; excess "
                        "is shed with 'overloaded' replies")
    parser.add_argument("--max-frame-kb", type=int, default=1024,
                        help="max request frame size in KiB")
    parser.add_argument("--max-sessions", type=int, default=1024,
                        help="max simultaneously open governor sessions")
    parser.add_argument("--log-interval", type=float, default=0.0,
                        metavar="SECONDS",
                        help="emit a structured stats log line every N "
                        "seconds (0 disables)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process "
                        "server; >1 spawns a pool sharing the listener)")
    parser.add_argument("--fleet-dir", default=None, metavar="DIR",
                        help="shared directory for cross-worker metrics "
                        "snapshots (pool mode provisions one when unset)")
    parser.add_argument("--predict-cache-mem", type=int, default=0,
                        metavar="N",
                        help="entries of the in-process prediction-cache "
                        "LRU (0 disables the memory tier)")
    parser.add_argument("--predict-cache-dir", default=None, metavar="DIR",
                        help="shared directory of the cross-worker "
                        "prediction cache (file tier)")
    parser.add_argument("--shared-predict-cache", action="store_true",
                        help="pool mode: provision a pool-owned shared "
                        "prediction-cache directory (implies the file tier)")
    parser.add_argument("--profile", nargs="?", default=UNSET, metavar="PSTATS",
                        help="profile the run with cProfile; optional dump "
                        "path (default repro-serve.pstats; REPRO_PROFILE=1 "
                        "also enables)")
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Translate CLI flags into a ServeConfig."""
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    if args.shared_predict_cache and args.workers < 2:
        raise ConfigError("--shared-predict-cache needs --workers > 1")
    return ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_frame_bytes=args.max_frame_kb * 1024,
        queue_depth=args.queue_depth,
        max_sessions=args.max_sessions,
        log_interval_s=args.log_interval,
        n_workers=args.workers,
        fleet_dir=args.fleet_dir,
        predict_cache_mem=args.predict_cache_mem,
        predict_cache_dir=args.predict_cache_dir,
    )


async def _run(config: ServeConfig) -> int:
    server = Server(config)
    endpoints = await server.start()
    print(f"repro-serve ready on {', '.join(endpoints)}", flush=True)
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
    return 0


def _run_pool(config: ServeConfig, n_workers: int, shared_cache: bool) -> int:
    """Drive a worker pool until SIGINT/SIGTERM."""
    pool = WorkerPool(config, n_workers, shared_cache=shared_cache)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    pool.start()
    try:
        endpoints = [f"unix:{path}" for path in pool.worker_paths()]
        if pool.base.host is not None:
            endpoints.append(f"tcp:{pool.base.host}:{pool.base.port}")
        print(
            f"repro-serve ready on {', '.join(endpoints)} "
            f"({n_workers} workers)",
            flush=True,
        )
        stop.wait()
    finally:
        pool.stop()
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        parser.error(str(exc))
    profile_path = resolve_profile_path(args.profile, "repro-serve.pstats")
    if args.workers > 1:
        return run_maybe_profiled(
            lambda: _run_pool(config, args.workers, args.shared_predict_cache),
            profile_path,
        )
    return run_maybe_profiled(lambda: asyncio.run(_run(config)), profile_path)


if __name__ == "__main__":
    raise SystemExit(main())
