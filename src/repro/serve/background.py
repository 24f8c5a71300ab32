"""Run an asyncio service on a background thread.

The serve stack is asyncio, but its callers in this repo — the replay
parity driver, the pool driver, the load generator, the test suite —
are synchronous. :class:`BackgroundService` owns a private event loop
on a daemon thread and proxies ``start``/``stop`` across it, so blocking
code can stand up any service with async ``start()``/``stop()`` and a
``tcp_port`` — a :class:`~repro.serve.server.Server` or a
:class:`~repro.serve.frontend.Frontend` — in-process::

    with BackgroundServer(ServeConfig(socket_path=path)) as server:
        client = ServeClient.connect(socket_path=path)
        ...

Stopping is idempotent; the loop and thread are torn down with the
service.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List, Optional

from repro.serve.server import ServeConfig, Server


class BackgroundService:
    """An asyncio service running on its own event-loop thread."""

    def __init__(self, service) -> None:
        self.service = service
        self.endpoints: List[str] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def start(self) -> List[str]:
        """Start the loop thread and the service; return its endpoints."""
        if self._loop is not None:
            raise RuntimeError("service already started")
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=self._run_loop, args=(loop,), name="repro-serve", daemon=True
        )
        thread.start()
        self._loop, self._thread = loop, thread
        future = asyncio.run_coroutine_threadsafe(self.service.start(), loop)
        try:
            self.endpoints = future.result(timeout=30)
        except Exception:
            self.stop()
            raise
        return self.endpoints

    def stop(self) -> None:
        """Stop the service and tear down the loop thread (idempotent)."""
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), loop
            ).result(timeout=30)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=30)
            loop.close()

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port, if a TCP endpoint was configured."""
        return self.service.tcp_port

    def __enter__(self) -> "BackgroundService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------

    @staticmethod
    def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            # Cancel anything the service's stop() left behind.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )


class BackgroundServer(BackgroundService):
    """A serve :class:`Server` built from ``config``, in the background."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server = Server(config)
        super().__init__(self.server)
