"""Request coalescing for the ``predict`` hot path.

Concurrent predict requests are gathered into one
:func:`repro.core.vectorized.evaluate_predict_jobs` call: the first job
to arrive schedules a flush for the event loop's next turn
(``loop.call_soon``), so a batch is every job submitted before that
turn, and reaching ``max_batch`` pending jobs flushes at once. No job
waits on a timer: under load, requests pile up while a batch is being
evaluated and the next turn picks them all up. Batch results are
bit-identical to per-request scalar evaluation (the kernel's contract),
so batching is purely a throughput knob — never a semantics knob.

A failing job must not sink its batch: if the vectorized call raises,
the batch is re-evaluated job by job on the scalar path and only the
poisoned job(s) receive the exception.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from repro.core.vectorized import (
    PredictJob,
    evaluate_predict_jobs,
    scalar_results,
)
from repro.serve.metrics import MetricsRegistry


class PredictBatcher:
    """Coalesces the predict jobs submitted within one event-loop turn."""

    def __init__(
        self,
        max_batch: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        evaluate=evaluate_predict_jobs,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.metrics = metrics
        self.evaluate = evaluate
        self._pending: List[Tuple[PredictJob, asyncio.Future]] = []

    @property
    def pending(self) -> int:
        """Jobs currently waiting for the next flush."""
        return len(self._pending)

    async def submit(self, job: PredictJob) -> List[float]:
        """Queue one job; resolves when its batch has been evaluated."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((job, future))
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif len(self._pending) == 1:
            loop.call_soon(self.flush)
        return await future

    def flush(self) -> None:
        """Evaluate everything pending right now (a no-op when empty)."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        if self.metrics is not None:
            self.metrics.batch_sizes.observe(float(len(pending)))
        jobs = [job for job, _ in pending]
        try:
            results = self.evaluate(jobs)
        except Exception:
            self._flush_scalar(pending)
            return
        for (_, future), result in zip(pending, results):
            if not future.done():
                future.set_result(result)

    def _flush_scalar(
        self, pending: List[Tuple[PredictJob, asyncio.Future]]
    ) -> None:
        """Isolate a poisoned batch: evaluate per job, fail only the bad ones."""
        for job, future in pending:
            if future.done():
                continue
            try:
                result = scalar_results(job)
            except Exception as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)
