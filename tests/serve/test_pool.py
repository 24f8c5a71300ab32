"""The multi-process worker pool: topology, affinity, fleet, shared cache.

Spawning real worker processes is slow, so one two-worker unix pool is
shared module-wide; tests that need their own lifecycle (stop semantics)
use a one-worker pool.
"""

import os
import socket

import pytest

from repro.common.errors import ConfigError
from repro.core.epochs import extract_epochs
from repro.serve.client import ServeClient, ShardedServeClient
from repro.serve.pool import WorkerPool, worker_config
from repro.serve.server import ServeConfig
from repro.serve.sharding import shard_for_key
from repro.sim.run import simulate
from tests.util import lock_pair_program, requires_af_unix

pytestmark = requires_af_unix


@pytest.fixture(scope="module")
def epochs():
    trace = simulate(lock_pair_program(), 1.0).trace
    return extract_epochs(trace.events)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    base = ServeConfig(
        socket_path=str(tmp_path_factory.mktemp("pool") / "serve.sock")
    )
    with WorkerPool(base, n_workers=2, shared_cache=True) as pool:
        yield pool


def connect(pool, worker_id):
    return ServeClient.connect(**pool.worker_endpoint(worker_id))


# ----------------------------------------------------------------------
# Config derivation (no processes)
# ----------------------------------------------------------------------


def test_pool_rejects_empty_worker_count(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "x.sock"))
    with pytest.raises(ConfigError):
        WorkerPool(config, n_workers=0)


def test_unix_worker_configs_derive_private_sockets(tmp_path):
    base = ServeConfig(socket_path=str(tmp_path / "public.sock"))
    derived = worker_config(base, 1, 2, fleet_dir=str(tmp_path),
                            predict_cache_dir=None)
    assert derived.socket_path == str(tmp_path / "public.sock") + ".w1"
    assert derived.host is None
    assert not derived.reuse_port
    assert derived.worker_id == 1
    assert derived.n_workers == 2
    assert derived.fleet_dir == str(tmp_path)


def test_tcp_worker_configs_share_a_reuse_port(tmp_path):
    base = ServeConfig(host="127.0.0.1", port=0)
    pool = WorkerPool(base, n_workers=2)  # never started
    try:
        ports = {c.port for c in pool.worker_configs}
        assert len(ports) == 1 and 0 not in ports  # one concrete shared port
        assert all(c.reuse_port for c in pool.worker_configs)
    finally:
        pool.stop()  # removes the pool's own fleet directory


def test_unix_and_tcp_listeners_are_independent(tmp_path):
    """A pool on a path and a host: each worker binds both of its own."""
    base = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                       host="127.0.0.1", port=0, fleet_dir=str(tmp_path))
    pool = WorkerPool(base, n_workers=2)  # never started
    assert pool.worker_paths() == [str(tmp_path / "serve.sock.w0"),
                                   str(tmp_path / "serve.sock.w1")]
    ports = {c.port for c in pool.worker_configs}
    assert len(ports) == 1 and 0 not in ports
    assert all(c.host == "127.0.0.1" and c.reuse_port
               for c in pool.worker_configs)


# ----------------------------------------------------------------------
# The live pool
# ----------------------------------------------------------------------


def test_every_worker_reports_its_identity(pool):
    for worker_id in range(pool.n_workers):
        with connect(pool, worker_id) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["worker_id"] == worker_id
            assert health["n_workers"] == pool.n_workers


def test_minted_session_ids_carry_worker_affinity(pool):
    with connect(pool, 1) as client:
        session = client.open_session()
        assert session.session_id.endswith("@w1")
        session.close()


def test_sharded_client_pins_sessions_by_key(pool):
    with ShardedServeClient.connect_workers(pool.worker_paths()) as sharded:
        for key in ("lusearch", "avrora", "tenant-3"):
            expected = shard_for_key(key, pool.n_workers)
            session = sharded.open_session(session_key=key)
            assert session.session_id.endswith(f"@w{expected}")
            session.close()


def test_stats_on_any_worker_reports_the_fleet(pool, epochs):
    for worker_id in range(pool.n_workers):
        with connect(pool, worker_id) as client:
            client.predict(epochs, 1.0, target_freqs_ghz=[2.0])
            # Every stats request force-publishes the answering worker's
            # snapshot, so polling each worker in turn converges on
            # exact totals regardless of the periodic publish interval.
            client.stats()
    with connect(pool, 0) as client:
        stats = client.stats()
    assert stats["worker_id"] == 0
    assert stats["n_workers"] == 2
    # Per-worker breakdown covers every worker that has published.
    assert sorted(stats["per_worker"]) == ["0", "1"]
    for row in stats["per_worker"].values():
        assert row["predict_requests"] >= 1
    fleet = stats["fleet"]
    assert fleet["workers_reporting"] == 2
    assert fleet["endpoints"]["predict"]["requests"] >= 2


def test_shared_cache_spans_workers(pool, epochs):
    """A payload computed on one worker is a cache hit on the other."""
    targets = [1.2, 3.4]
    with connect(pool, 0) as client:
        cold = client.predict(epochs, 1.0, target_freqs_ghz=targets)
    with connect(pool, 1) as client:
        before = client.stats()["predict_cache"]["hits"]
        warm = client.predict(epochs, 1.0, target_freqs_ghz=targets)
        after = client.stats()["predict_cache"]["hits"]
    assert warm == cold  # repr-exact: same fragment bytes, same values
    assert after == before + 1


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_stop_reaps_workers_and_cleans_the_filesystem(tmp_path):
    base = ServeConfig(socket_path=str(tmp_path / "serve.sock"))
    pool = WorkerPool(base, n_workers=1)
    own_dir = pool._own_dir
    pool.start()
    assert pool.alive() == [True]
    assert all(os.path.exists(p) for p in pool.worker_paths())
    processes = list(pool._processes)
    pool.stop()
    assert all(not p.is_alive() for p in processes)
    assert not any(os.path.exists(p) for p in pool.worker_paths())
    assert own_dir is not None and not os.path.exists(own_dir)
    pool.stop()  # idempotent


class _FakeProcess:
    """A ``multiprocessing.Process`` stand-in that starts nothing."""

    def __init__(self, spawned, fail_on, name, **_):
        self.spawned = spawned
        self.fail_on = fail_on
        self.name = name
        self.alive = False
        self.terminated = False

    def start(self):
        if len(self.spawned) == self.fail_on:
            raise OSError("spawn failed")
        self.spawned.append(self)
        self.alive = True

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.terminated = True
        self.alive = False

    def join(self, timeout=None):
        pass


def test_failed_spawn_stops_the_workers_already_started(tmp_path, monkeypatch):
    import multiprocessing

    spawned = []

    class FakeContext:
        def Process(self, **kwargs):
            return _FakeProcess(spawned, fail_on=1, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", lambda _: FakeContext())
    base = ServeConfig(socket_path=str(tmp_path / "serve.sock"))
    pool = WorkerPool(base, n_workers=3)
    own_dir = pool._own_dir
    assert own_dir is not None and os.path.isdir(own_dir)
    with pytest.raises(OSError, match="spawn failed"):
        pool.start()
    assert len(spawned) == 1 and spawned[0].terminated
    assert pool.alive() == []
    assert not os.path.exists(own_dir)
