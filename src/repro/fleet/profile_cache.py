"""Persistent, content-addressed store of fleet tenant profiles.

Profile *building* — simulating every distinct (workload, base
frequency, quantum, predictor) shape a fleet needs — dominates the cost
of a cold ``repro-fleet`` run (BENCH_fleet.json). But a profile is a
pure function of its shape: the same tenant shape simulated tomorrow,
in another process, or in another cell of a policy × cap grid yields
the byte-identical trace. This module gives those traces a durable
home so the work is done once per shape *ever*, not once per run:

* **Content-addressed keys** (:func:`profile_cache_key`): a SHA-256
  over everything that determines the simulated trace — the workload
  config, the machine spec, base frequency, quantum, predictor, the
  trace :data:`~repro.sim.serialize.FORMAT_VERSION`, the sweep
  :data:`~repro.core.sweep.KERNEL_VERSION` and this module's
  :data:`PROFILE_CACHE_VERSION`. Any input or schema change produces a
  fresh key, so stale entries are orphaned, never returned.
* **Tiered storage** (:mod:`repro.common.store`): an in-memory
  :class:`~repro.common.store.MemoryLRU` over an envelope-checked
  :class:`~repro.common.store.FileStore` via
  :class:`~repro.common.store.TieredStore` — repeat fetches within one
  process are dict-speed, across processes they ride the page cache,
  and concurrent writers (two ``repro-fleet`` runs sharing a directory)
  publish atomically with identical bytes.
* **Distrust by default.** The stored value is itself a versioned
  envelope around :func:`~repro.sim.serialize.trace_to_dict` output,
  with the trace body carried as a SHA-256-checksummed string; a
  corrupt, truncated, bit-flipped or stale-version entry is treated as
  a miss and recomputed, never trusted
  (``tests/property/test_profile_cache_prop.py`` pins both the
  bit-exact round-trip and the rejection paths), and the
  ``fleet-store-identity`` QA invariant
  (:func:`case_store_identity_violations`) holds whole fleet reports
  byte-identical through the store.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.arch.specs import MachineSpec
from repro.common.store import FileStore, MemoryLRU, TieredStore, stable_hash
from repro.sim.serialize import (
    FORMAT_VERSION,
    trace_from_dict,
    trace_to_dict,
)
from repro.sim.trace import SimulationTrace

#: Bump when the profile envelope or its semantics change: every
#: existing entry becomes unreachable (new keys) and is rebuilt.
PROFILE_CACHE_VERSION = 1

#: The ``kind`` field of a stored profile envelope.
PROFILE_KIND = "repro-fleet-profile"

#: Filename prefix of profile entries inside the cache directory.
PROFILE_PREFIX = "profile"

_PathLike = Union[str, Path]


def default_profile_cache_dir() -> Path:
    """``<result-cache root>/fleet-profiles`` (honours ``REPRO_CACHE_DIR``)."""
    from repro.experiments.cache import default_cache_dir

    return default_cache_dir() / "fleet-profiles"


def profile_cache_key(
    workload: Any,
    base_freq_ghz: float,
    quantum_ns: float,
    predictor: str,
    spec: MachineSpec,
) -> str:
    """Content key of one tenant profile.

    Matches the identity of :func:`repro.fleet.tenants.profile_key`
    (workload × base × quantum × predictor) widened by everything a
    persistent store must additionally distrust: the machine spec the
    trace was simulated on, the trace format, the sweep kernel revision
    and the envelope version.
    """
    from repro.core.sweep import KERNEL_VERSION

    return stable_hash(
        {
            "kind": PROFILE_KIND,
            "cache_version": PROFILE_CACHE_VERSION,
            "trace_format": FORMAT_VERSION,
            "kernel_version": KERNEL_VERSION,
            "workload": asdict(workload),
            "base_freq_ghz": round(base_freq_ghz, 6),
            "quantum_ns": quantum_ns,
            "predictor": predictor,
            "spec": spec,
        }
    )


def key_for_tenant(tenant, spec: MachineSpec) -> str:
    """:func:`profile_cache_key` of a :class:`~repro.fleet.tenants.TenantSpec`."""
    return profile_cache_key(
        tenant.workload,
        tenant.base_freq_ghz,
        tenant.quantum_ns,
        tenant.predictor,
        spec,
    )


class ProfileCache:
    """Durable trace store behind :class:`~repro.fleet.profiles.ProfileStore`.

    ``get``/``put`` speak :class:`~repro.sim.trace.SimulationTrace`; the
    envelope plumbing (versioning, JSON, rejection of defects) is
    internal. Safe for concurrent multi-process use: publishes are
    atomic, so processes may share one directory.
    """

    def __init__(
        self, root: Optional[_PathLike] = None, max_memory_entries: int = 64
    ) -> None:
        self.root = Path(root) if root is not None else default_profile_cache_dir()
        self._files = FileStore(self.root, prefix=PROFILE_PREFIX)
        self._memory = MemoryLRU(max_entries=max_memory_entries)
        self._tiers = TieredStore([self._memory, self._files])
        #: Envelopes found but rejected (stale version, malformed trace).
        self.rejected = 0

    # -- trace round-trip ----------------------------------------------

    def get(self, key: str) -> Optional[SimulationTrace]:
        """The cached trace under ``key``, or ``None`` on any defect."""
        value = self._tiers.get(key)
        if value is None:
            return None
        try:
            envelope = json.loads(value)
            if (
                not isinstance(envelope, dict)
                or envelope.get("kind") != PROFILE_KIND
                or envelope.get("cache_version") != PROFILE_CACHE_VERSION
            ):
                raise ValueError("stale or foreign profile envelope")
            body = envelope["trace"]
            if not isinstance(body, str) or (
                hashlib.sha256(body.encode("utf-8")).hexdigest()
                != envelope.get("sha256")
            ):
                raise ValueError("profile body fails its checksum")
            return trace_from_dict(json.loads(body))
        except Exception:
            # Never trust a defective entry: count it, drop it from
            # every tier best-effort, and let the caller recompute.
            self.rejected += 1
            self._memory.drop(key)
            self._files.drop(key)
            return None

    def put(self, key: str, trace: SimulationTrace) -> None:
        """Persist ``trace`` under ``key`` (atomic publish, every tier).

        The trace body travels as a checksummed string inside the
        envelope, so *any* byte damage — not just damage that breaks
        the JSON — reads back as a miss.
        """
        body = json.dumps(trace_to_dict(trace), separators=(",", ":"))
        envelope = json.dumps(
            {
                "kind": PROFILE_KIND,
                "cache_version": PROFILE_CACHE_VERSION,
                "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
                "trace": body,
            },
            separators=(",", ":"),
        )
        self._tiers.put(key, envelope)

    # -- management ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._files)

    def stats(self) -> Dict[str, Any]:
        """Per-tier hit/miss counters plus rejection count."""
        memory, files = self._tiers.tier_stats()
        return {"memory": memory, "disk": files, "rejected": self.rejected}

    def disk_stats(self) -> Dict[str, int]:
        """Entry and byte counts of the file tier."""
        entries = size = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if not path.is_file():
                    continue
                size += path.stat().st_size
                if path.name.startswith(f"{PROFILE_PREFIX}-"):
                    entries += 1
        return {"entries": entries, "size_bytes": size}

    def clear(self) -> int:
        """Remove every profile entry (memory and disk); return files
        removed from disk."""
        return self._tiers.clear()


def describe(cache: ProfileCache) -> str:
    """Human-readable summary (``repro-fleet cache stats``)."""
    disk = cache.disk_stats()
    lines = [
        f"profile cache: {cache.root}",
        f"schema:        v{PROFILE_CACHE_VERSION} "
        f"(trace format {FORMAT_VERSION})",
        f"entries:       {disk['entries']}",
        f"size on disk:  {disk['size_bytes'] / 1e6:.1f} MB",
    ]
    stats = cache.stats()
    session = {
        "hits": stats["memory"]["hits"] + stats["disk"]["hits"],
        "misses": stats["disk"]["misses"],
        "stores": stats["disk"]["stores"],
    }
    if any(session.values()) or cache.rejected:
        lines.append(
            f"this session:  {session['hits']} hits, "
            f"{session['misses']} misses, {session['stores']} stores, "
            f"{cache.rejected} rejected"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The fleet-store-identity QA property
# ----------------------------------------------------------------------

#: Tenants in the invariant's miniature fleet.
_FLEET_SIZE = 6


def case_store_identity_violations(context) -> List[str]:
    """Injected vs cold-cached vs warm-store reports must be byte-identical.

    The fuzz case is promoted to a tenant (the ``repro-qa promote``
    adapter) at both of its frequencies, and one small overlapping
    fleet is run three ways: over the QA context's own simulations
    injected into a store, over a store that simulates fresh through
    :func:`repro.sim.batch.run_batch` and publishes into a temporary
    cache, and over a store rehydrated entirely from that cache. Any
    byte of divergence on the identity view means the batched build or
    the persistence round-trip changed a result.
    """
    from dataclasses import replace

    from repro.fleet.engine import FleetConfig, run_fleet
    from repro.fleet.profiles import ProfileStore
    from repro.fleet.report import report_identity_bytes
    from repro.fleet.tenants import profile_key, tenant_from_fuzz_case

    case = context.case
    base_tenant = tenant_from_fuzz_case(case, name=f"qa-{case.seed}-base")
    high_tenant = replace(
        base_tenant,
        name=f"qa-{case.seed}-high",
        base_freq_ghz=case.high_freq_ghz,
    )
    variants = [base_tenant, high_tenant]
    tenants = [variants[i % 2] for i in range(_FLEET_SIZE)]
    injected_store = ProfileStore(context.spec)
    injected_store.build(
        variants,
        traces={
            profile_key(base_tenant): context.result(
                case.base_freq_ghz
            ).trace,
            profile_key(high_tenant): context.result(
                case.high_freq_ghz
            ).trace,
        },
    )
    spacing = min(
        injected_store.profile_for(tenant).baseline_ns for tenant in variants
    ) / 4.0
    arrivals_ns = [i * spacing for i in range(_FLEET_SIZE)]

    def fleet(store: ProfileStore):
        return run_fleet(
            FleetConfig(
                tenants=_FLEET_SIZE, seed=case.seed, policy="paper-governor"
            ),
            spec=context.spec,
            store=store,
            tenants=tenants,
            arrivals_ns=arrivals_ns,
        )

    with tempfile.TemporaryDirectory(prefix="repro-qa-fleet-") as root:
        injected = report_identity_bytes(fleet(injected_store))
        cold = fleet(ProfileStore(context.spec, cache=ProfileCache(root)))
        warm = fleet(ProfileStore(context.spec, cache=ProfileCache(root)))
    violations: List[str] = []
    if report_identity_bytes(cold) != injected:
        violations.append(
            "cold-cached fleet report diverges from the injected build "
            "on the identity view"
        )
    if report_identity_bytes(warm) != injected:
        violations.append(
            "warm-store fleet report diverges from the injected build "
            "on the identity view"
        )
    published = len({profile_key(tenant) for tenant in variants})
    if warm.diagnostics["cache_hits"] != published:
        violations.append(
            f"warm store hit the cache {warm.diagnostics['cache_hits']} "
            f"time(s) for {published} published profile(s)"
        )
    return violations
