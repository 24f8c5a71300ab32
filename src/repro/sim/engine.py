"""Minimal discrete-event queue with indexed stale-event invalidation.

The system schedules three kinds of future events: segment completions,
sleep timers, and quantum boundaries. Segment completions must be revocable
— a DVFS transition rescales every in-flight segment — so each event carries
a *token*; bumping the token for a thread invalidates its outstanding
events without the cost of removing them from the heap.

The queue keeps a per-thread index of live tokens (:meth:`invalidate`).
:meth:`pop` consults it and silently drops stale ``("seg", tid, token)`` /
``("timer", tid, token)`` events, so the system's event loop never
dispatches a handler for a revoked event, and it returns the raw heap
tuple, so no per-pop record object is allocated.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError


class EventQueue:
    """Time-ordered event queue with monotonic pop and token invalidation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0
        self._now = 0.0
        #: tid -> currently-live token; payload-carried tokens that do not
        #: match are stale completions/timers and are dropped by pop.
        self._live_tokens: Dict[int, int] = {}

    @property
    def now_ns(self) -> float:
        """Time of the most recently popped event (simulation clock)."""
        return self._now

    def push(self, time_ns: float, payload: Any) -> None:
        """Schedule ``payload`` at ``time_ns`` (must not be in the past)."""
        if time_ns < self._now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past: {time_ns} < now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ns, seq, payload))

    def invalidate(self, tid: int, live_token: int) -> None:
        """Declare ``live_token`` the only valid token for ``tid``'s events.

        Previously pushed ``("seg"/"timer", tid, old_token)`` events become
        stale: they stay in the heap but :meth:`pop` discards them.
        """
        self._live_tokens[tid] = live_token

    def pop(self) -> Optional[Tuple[float, int, Any]]:
        """Pop the earliest *live* event as its heap tuple; None when empty.

        The tuple is ``(time_ns, seq, payload)``; ``seq`` is the push
        order, which breaks ties between events at the same time.

        Stale tokenized events are dropped without advancing the clock —
        equivalent to the unindexed behavior, since any later live event
        carries a time at least as large.
        """
        heap = self._heap
        live = self._live_tokens
        while heap:
            item = heapq.heappop(heap)
            payload = item[2]
            if type(payload) is tuple and len(payload) >= 3:
                expected = live.get(payload[1])
                if expected is not None and payload[2] != expected:
                    continue
            time_ns = item[0]
            if time_ns > self._now:
                self._now = time_ns
            return item
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
