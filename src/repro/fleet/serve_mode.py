"""Serve-backed fleet mode: governor streams through a real worker pool.

The fleet engine steps every governor decision stream in process
(:meth:`repro.fleet.profiles.TenantProfile.governor_plan`). This module
replays the same streams through a live multi-worker :mod:`repro.serve`
tier — a :class:`~repro.serve.pool.WorkerPool` reached through its
worker sockets by a :class:`~repro.serve.client.ShardedServeClient`,
each stream placed on its consistent-hash shard by a per-group
``session_key`` — and asserts the
two logs agree **as encoded wire bytes**, the same comparison the serve
replay experiment makes. One stream per distinct (profile, manager
config) group covers every tenant: tenants sharing a group share the
decision stream by construction.

This validates the wire path at fleet scale without paying one socket
round-trip per tenant-interval for thousands of identical tenants.
"""

from __future__ import annotations

import os
import socket
import tempfile
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigError, ReproError
from repro.energy.manager import ManagerConfig
from repro.fleet.profiles import ProfileStore, TenantProfile
from repro.fleet.tenants import TenantSpec, profile_key
from repro.serve.client import ShardedServeClient, replay_decisions
from repro.serve.pool import WorkerPool
from repro.serve.server import ServeConfig
from repro.serve.sessions import decision_log_bytes


def decision_groups(
    store: ProfileStore, tenants: Sequence[TenantSpec]
) -> List[Tuple[str, TenantProfile, ManagerConfig]]:
    """Distinct (profile, manager) decision-stream groups of a fleet.

    Group keys are stable strings (profile key + manager fingerprint),
    used both for dedup and as the consistent-hash ``session_key``.
    """
    groups: Dict[str, Tuple[str, TenantProfile, ManagerConfig]] = {}
    for tenant in tenants:
        manager = tenant.manager
        key = (
            f"{profile_key(tenant)}"
            f"@{manager.tolerable_slowdown}"
            f"/{manager.hold_off}"
            f"/{manager.min_busy_ns}"
            f"/{manager.slack_banking}"
            f"/{manager.objective}"
        )
        if key not in groups:
            groups[key] = (key, store.profile_for(tenant), manager)
    return [groups[key] for key in sorted(groups)]


def validate_decision_streams(
    store: ProfileStore,
    tenants: Sequence[TenantSpec],
    workers: int = 2,
) -> Dict[str, object]:
    """Replay every decision-stream group through a live worker pool.

    Returns the report's ``serve`` block on success; raises
    :class:`ReproError` on the first byte mismatch — this is a
    correctness gate, not a measurement.
    """
    if workers < 1:
        raise ConfigError("serve validation needs at least 1 worker")
    if not hasattr(socket, "AF_UNIX"):
        raise ConfigError(
            "serve-backed fleet mode needs AF_UNIX sockets on this platform"
        )
    groups = decision_groups(store, tenants)
    decisions_checked = 0
    with tempfile.TemporaryDirectory(prefix="repro-fleet-serve-") as tmp:
        pool_path = os.path.join(tmp, "pool.sock")
        pool = WorkerPool(
            ServeConfig(socket_path=pool_path, predict_cache_mem=1024),
            workers,
            shared_cache=True,
        )
        pool.start()
        try:
            with ShardedServeClient.connect_workers(
                    pool.worker_paths()) as client:
                for key, profile, manager in groups:
                    local = decision_log_bytes(
                        profile.governor_plan(manager).decisions
                    )
                    remote = decision_log_bytes(replay_decisions(
                        client, profile.trace, manager,
                        predictor=profile.predictor_name, session_key=key,
                    ))
                    if remote != local:
                        raise ReproError(
                            f"serve-backed fleet parity broken for group "
                            f"{key}: pooled decision stream differs from "
                            "the in-process stream"
                        )
                    decisions_checked += len(
                        profile.governor_plan(manager).decisions
                    )
        finally:
            pool.stop()
    return {
        "workers": workers,
        "groups": len(groups),
        "decisions": decisions_checked,
        "status": "byte-identical",
    }
