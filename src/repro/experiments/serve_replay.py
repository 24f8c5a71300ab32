"""Serve replay parity: the online service vs. the in-process governor.

The ``govern`` endpoint of :mod:`repro.serve` claims byte-identical
decision parity with :class:`~repro.energy.manager.EnergyManager`: a
client that streams a managed run's interval records (and their epoch
slices) through a server-side session must read back exactly the
decision log the in-process manager produced. This driver proves it
end to end over the wire, twice per run:

1. run a benchmark under the in-process energy manager,
2. stand up a real **single server** (unix socket, batching enabled)
   and a real **two-worker pool** behind the routing frontend
   (:mod:`repro.serve.pool` / :mod:`repro.serve.frontend`, shared
   prediction cache on),
3. replay the recorded trace through a fresh ``govern`` session on
   each topology — the pool session is pinned by a per-run
   ``session_key``, so the run exercises consistent-hash routing,
4. compare all three decision logs *as encoded wire bytes* — the same
   JSON encoding the protocol uses, so "equal" means equal at the byte
   level, not approximately.

One memory-intensive and one compute-intensive benchmark, at both
slowdown thresholds. The report also shows which pool worker served
each session and the final per-worker session distribution (read from
each worker directly, so the numbers are exact, not fleet-staleness
bounded). A parity failure raises — this experiment is a correctness
gate, not a measurement.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict

from repro.common.errors import ReproError
from repro.energy.manager import EnergyManager, ManagerConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.serve import protocol
from repro.serve.background import BackgroundServer, BackgroundService
from repro.serve.client import ServeClient, replay_decisions
from repro.serve.frontend import Frontend
from repro.serve.pool import WorkerPool
from repro.serve.server import ServeConfig
from repro.serve.sessions import decision_to_wire
from repro.serve.sharding import shard_for_key
from repro.sim.run import simulate_managed

#: One benchmark from each of the paper's groups.
BENCHMARKS = ("lusearch", "avrora")

#: Pool size the parity gate runs at (the acceptance floor is >= 2).
POOL_WORKERS = 2


def work(config):
    """No prefetchable ground truths: parity needs the managed *traces*,
    which the shared runner summarizes away, so this driver simulates
    its benchmarks itself."""
    return []


def decision_bytes(decisions) -> bytes:
    """Encode a decision log exactly as the wire protocol would."""
    return protocol.encode_frame(
        {"decisions": [decision_to_wire(d) for d in decisions]}
    )


def _worker_sessions_opened(pool: WorkerPool) -> Dict[int, int]:
    """Exact sessions-opened per worker, asked of each worker directly."""
    opened: Dict[int, int] = {}
    for worker_id in range(pool.n_workers):
        with ServeClient.connect(**pool.worker_endpoint(worker_id)) as probe:
            snapshot = probe.stats()
            opened[worker_id] = int(snapshot["sessions"]["opened"])
    return opened


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Replay managed runs through live topologies; assert byte parity."""
    config = runner.config
    result = ExperimentResult(
        experiment_id="Serve replay",
        title="Online service decision parity vs. in-process governor",
        headers=["benchmark", "threshold", "decisions", "wire bytes",
                 "single", f"pool x{POOL_WORKERS}", "worker"],
        notes="decision logs compared as encoded protocol frames; "
        "any mismatch raises",
    )
    benchmarks = [b for b in BENCHMARKS if b in config.benchmarks] or list(
        config.benchmarks[:2]
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        socket_path = os.path.join(tmp, "serve.sock")
        pool_path = os.path.join(tmp, "pool.sock")
        pool = WorkerPool(
            ServeConfig(socket_path=pool_path, predict_cache_mem=1024),
            POOL_WORKERS,
            shared_cache=True,
        )
        with BackgroundServer(ServeConfig(socket_path=socket_path)):
            pool.start()
            frontend = BackgroundService(
                Frontend(pool.worker_paths(), socket_path=pool_path)
            )
            frontend.start()
            try:
                with ServeClient.connect(socket_path=socket_path) as client, \
                        ServeClient.connect(socket_path=pool_path) as pooled:
                    for benchmark in benchmarks:
                        bundle = runner.bundle(benchmark)
                        for threshold in config.thresholds:
                            manager_config = ManagerConfig(
                                tolerable_slowdown=threshold
                            )
                            manager = EnergyManager(
                                bundle.spec, manager_config
                            )
                            sim = simulate_managed(
                                bundle.program,
                                manager,
                                spec=bundle.spec,
                                jvm_config=bundle.jvm_config,
                                gc_model=bundle.gc_model,
                                quantum_ns=config.quantum_ns,
                            )
                            runner.simulations += 1
                            local_bytes = decision_bytes(manager.decisions)
                            session_key = f"{benchmark}@{threshold:.2f}"
                            remote = replay_decisions(
                                client, sim.trace, manager_config
                            )
                            pool_remote = replay_decisions(
                                pooled, sim.trace, manager_config,
                                session_key=session_key,
                            )
                            for label, log in (
                                ("single-server", remote),
                                (f"{POOL_WORKERS}-worker pool", pool_remote),
                            ):
                                if decision_bytes(log) != local_bytes:
                                    raise ReproError(
                                        f"serve replay parity broken for "
                                        f"{benchmark} at threshold "
                                        f"{threshold:.0%} on {label}: server "
                                        f"log differs from in-process log"
                                    )
                            worker_id = shard_for_key(
                                session_key, POOL_WORKERS
                            )
                            result.rows.append(
                                (
                                    benchmark,
                                    f"{threshold:.0%}",
                                    str(len(manager.decisions)),
                                    str(len(local_bytes)),
                                    "byte-identical",
                                    "byte-identical",
                                    f"w{worker_id}",
                                )
                            )
                    opened = _worker_sessions_opened(pool)
            finally:
                frontend.stop()
                pool.stop()
    distribution = ", ".join(
        f"w{worker_id}={count}" for worker_id, count in sorted(opened.items())
    )
    result.notes += f"; pool sessions opened by worker: {distribution}"
    return result
