"""Online prediction service: DVFS predictions and governor decisions
over the wire.

The paper's energy manager is an *online* consumer of the predictors —
every 5 ms quantum it reads counters, predicts slowdown per candidate
frequency, and picks a set point. This package deploys exactly that shape
as a long-running asyncio server speaking a versioned newline-delimited-
JSON protocol over a unix socket or TCP:

* ``predict`` — counter-delta epochs in, per-frequency predicted
  durations out, for any registered predictor (DEP+BURST, M+CRIT, COOP,
  ...). Requests that arrive within one event-loop turn are coalesced
  into vectorized batches (:mod:`repro.core.vectorized`) of at most
  ``max_batch`` jobs; no request waits on a timer.
* ``govern`` — stateful energy-manager sessions
  (:class:`repro.energy.manager.EnergyManagerSession` held server-side):
  open a session with a :class:`~repro.energy.manager.ManagerConfig`,
  step it one interval at a time, and receive the byte-identical
  frequency decisions an in-process manager would have made.
* ``health`` / ``stats`` — liveness and the metrics surface (per-endpoint
  request counters, latency histograms, batch-size histogram, overload
  counts).

Bounded per-connection queues shed load with explicit ``overloaded``
error replies instead of buffering without limit, and malformed frames or
predictor failures degrade to structured error replies instead of killing
the connection. See ARCHITECTURE.md for the frame format.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import ServeConfig, Server

__all__ = ["PROTOCOL_VERSION", "ServeClient", "ServeConfig", "Server"]
