"""Persistent, content-addressed result cache for ground-truth simulations.

Ground-truth runs dominate the cost of every table and figure: each
benchmark is simulated at every frequency step and again per slowdown
threshold. :class:`~repro.experiments.runner.ExperimentRunner` memoizes
only in-process, so every CLI invocation used to re-simulate from
scratch. This module gives those results a durable home:

* **Content-addressed keys.** An entry's key is a SHA-256 over the
  canonical JSON of everything that determines the result: the benchmark's
  workload spec, :class:`~repro.arch.specs.MachineSpec`,
  :class:`~repro.jvm.runtime.JvmConfig`, the frequency or threshold, the
  scheduling quantum, the trace :data:`~repro.sim.serialize.FORMAT_VERSION`
  and this module's :data:`CACHE_SCHEMA_VERSION`. Same inputs → same key;
  any config or schema change → different key, so stale entries are never
  returned (they are simply orphaned until ``clear``).
* **One entry per run.** :class:`ResultCache` is a thin codec over
  :class:`~repro.common.store.FileStore`: a fixed or managed run becomes
  one JSON value, and a retained base-frequency trace rides inline as
  the columnar :func:`~repro.sim.serialize.encode_trace` document —
  there is no sidecar file.
* **Crash/corruption safety** comes from the store's checksummed
  envelope and atomic publish: *any* damaged entry — truncated,
  bit-flipped, one digit changed — reads as a miss (recompute, never
  crash, never a wrong number) and is removed best-effort.

The default location is ``~/.cache/repro``, overridable with the
``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import astuple
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.common.store import FileStore, default_cache_dir, stable_hash
from repro.sim.serialize import FORMAT_VERSION, decode_trace, encode_trace

if TYPE_CHECKING:  # runner imports this module; keep the cycle import-time free
    from repro.experiments.runner import FixedRun, ManagedRun

#: Bump when the simulator/cache semantics change in a way the key's
#: config fields cannot capture (e.g. a timing-model fix): every existing
#: entry becomes unreachable and is recomputed on demand.
CACHE_SCHEMA_VERSION = 2

_PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Content keys (canonical hashing lives in repro.common.store)
# ----------------------------------------------------------------------


def fixed_key(fingerprint: Dict[str, Any], freq_ghz: float, quantum_ns: float) -> str:
    """Content key of one fixed-frequency ground-truth run."""
    return stable_hash(
        {
            "kind": "fixed",
            "schema": CACHE_SCHEMA_VERSION,
            "trace_format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "freq_ghz": round(freq_ghz, 6),
            "quantum_ns": quantum_ns,
        }
    )


def prediction_fingerprint() -> Dict[str, Any]:
    """Cache-key identity of the prediction engine driving a managed run.

    Managed runs predict through the sweep kernels, so a kernel revision
    (:data:`~repro.core.sweep.KERNEL_VERSION`) must move every managed
    key: a result computed under one revision never answers a lookup
    under another. The ``"engine"`` field is kept so keys stay
    byte-identical to those of earlier stores.
    """
    from repro.core.sweep import KERNEL_VERSION

    return {"engine": "sweep", "kernel_version": KERNEL_VERSION}


def managed_key(
    fingerprint: Dict[str, Any],
    manager_config: Any,
    quantum_ns: float,
    prediction: Dict[str, Any],
) -> str:
    """Content key of one energy-managed run.

    Keyed by the full manager config plus the prediction-engine
    fingerprint (see :func:`prediction_fingerprint`).
    """
    return stable_hash(
        {
            "kind": "managed",
            "schema": CACHE_SCHEMA_VERSION,
            "trace_format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "manager": manager_config,
            "quantum_ns": quantum_ns,
            "prediction": prediction,
        }
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


def _dumps(value: Dict[str, Any]) -> str:
    return json.dumps(value, separators=(",", ":"))


def _decode_fixed(text: str) -> "FixedRun":
    from repro.experiments.runner import FixedRun

    value = json.loads(text)
    trace = value.pop("trace")
    return FixedRun(
        trace=None if trace is None else decode_trace(trace), **value
    )


def _decode_managed(text: str) -> "ManagedRun":
    from repro.energy.manager import ManagerDecision
    from repro.experiments.runner import ManagedRun

    value = json.loads(text)
    value["decisions"] = [
        ManagerDecision(*decision) for decision in value["decisions"]
    ]
    return ManagedRun(**value)


class ResultCache:
    """Content-addressed on-disk store of experiment ground truths.

    One directory per schema version; inside it, one checksummed
    :class:`~repro.common.store.FileStore` entry per run (the keys of
    fixed and managed runs hash distinct ``kind`` fields, so both share
    one store). Concurrent writers are safe: both compute identical
    bytes for a key and publish atomically, so the last rename wins
    with an identical result. ``stats`` is the store's counters: hits,
    misses, stores and rejected (corrupt) entries.
    """

    def __init__(self, root: Optional[_PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._dir = self.root / f"v{CACHE_SCHEMA_VERSION}"
        self._store = FileStore(self._dir, prefix="run")
        self.stats = self._store.stats

    def _load(self, key: str, decode: Callable[[str], Any]) -> Any:
        text = self._store.get(key)
        if text is None:
            return None
        try:
            return decode(text)
        except Exception:
            # Intact bytes this codec cannot read (a codec change without
            # a schema bump): a rejection like any corrupt entry, not a hit.
            self.stats.hits -= 1
            self.stats.errors += 1
            self.stats.misses += 1
            self._store.drop(key)
            return None

    def load_fixed(self, key: str, benchmark: str) -> Optional["FixedRun"]:
        """The cached :class:`FixedRun` under ``key``, or ``None``.

        ``benchmark`` is already part of ``key``; the loaders take it so
        call sites name the entry they want.
        """
        return self._load(key, _decode_fixed)

    def store_fixed(self, key: str, run: "FixedRun") -> None:
        """Persist a fixed run, its trace (if retained) inline."""
        self._store.put(
            key,
            _dumps(
                {
                    "benchmark": run.benchmark,
                    "freq_ghz": run.freq_ghz,
                    "total_ns": run.total_ns,
                    "gc_time_ns": run.gc_time_ns,
                    "gc_cycles": run.gc_cycles,
                    "energy_j": run.energy_j,
                    "trace": None
                    if run.trace is None
                    else encode_trace(run.trace),
                }
            ),
        )

    def load_managed(self, key: str, benchmark: str) -> Optional["ManagedRun"]:
        """The cached :class:`ManagedRun` under ``key``, or ``None``."""
        return self._load(key, _decode_managed)

    def store_managed(self, key: str, run: "ManagedRun") -> None:
        """Persist a managed run, decisions inline."""
        self._store.put(
            key,
            _dumps(
                {
                    "benchmark": run.benchmark,
                    "threshold": run.threshold,
                    "total_ns": run.total_ns,
                    "energy_j": run.energy_j,
                    "decisions": [astuple(d) for d in run.decisions],
                }
            ),
        )

    # -- maintenance ---------------------------------------------------

    def _version_dirs(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return [
            child
            for child in sorted(self.root.iterdir())
            if child.is_dir() and child.name.startswith("v")
        ]

    def disk_stats(self) -> Dict[str, int]:
        """Entry and byte counts on disk, across all schema versions."""
        entries = stale = size = 0
        for child in self._version_dirs():
            for path in child.iterdir():
                if not path.is_file():
                    continue
                size += path.stat().st_size
                if path.suffix == ".json" and not path.name.startswith(".tmp-"):
                    entries += child == self._dir
                    stale += child != self._dir
        return {"entries": entries, "stale_entries": stale, "size_bytes": size}

    def clear(self) -> int:
        """Remove every version directory under the root; return files removed."""
        removed = 0
        for child in self._version_dirs():
            removed += sum(1 for p in child.rglob("*") if p.is_file())
            shutil.rmtree(child, ignore_errors=True)
        return removed


def describe(cache: ResultCache) -> str:
    """Human-readable one-stop summary (CLI ``cache stats``)."""
    disk = cache.disk_stats()
    lines = [
        f"cache root:    {cache.root}",
        f"schema:        v{CACHE_SCHEMA_VERSION} (trace format {FORMAT_VERSION})",
        f"entries:       {disk['entries']} "
        f"({disk['stale_entries']} stale from other versions)",
        f"size on disk:  {disk['size_bytes'] / 1e6:.1f} MB",
    ]
    session = cache.stats
    if session.hits or session.misses or session.stores:
        lines.append(
            f"this session:  {session.hits} hits, {session.misses} misses, "
            f"{session.stores} stores, {session.errors} corrupt"
        )
    return "\n".join(lines)
