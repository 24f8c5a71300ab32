"""Multi-backend content-addressed key/value store.

Every persistent cache in the repo is built on this module: the result
cache of :mod:`repro.experiments.cache`, the fleet profile store of
:mod:`repro.fleet.profile_cache` and the cross-worker prediction cache
of :mod:`repro.serve.predcache`. They share one storage discipline:

* **Content-addressed keys.** :func:`stable_hash` reduces an arbitrary
  configuration object to a SHA-256 over its canonical JSON form
  (:func:`canonical`), so equal inputs hash identically regardless of
  dict insertion order or dataclass field order, and any input change
  produces a fresh key — stale values are orphaned, never returned.
* **One checksummed envelope.** A file entry is ``{"key", "sha256",
  "value"}``: the full key guards against hash-prefix filename
  collisions, the SHA-256 of the value text against any byte damage —
  including a changed digit that leaves the JSON valid. This is the
  only place a stored value is checksummed; callers never add a digest
  of their own.
* **Crash/corruption safety.** Disk writes are published with an atomic
  ``os.replace`` (:func:`atomic_write_text`); reads treat *any* defect —
  truncation, bit flips, a key or checksum mismatch — as a miss and
  drop the offender best-effort.

On top of those primitives this module layers composable backends:

:class:`MemoryLRU`
    A per-process LRU dict — the first tier of a read path; no I/O.
:class:`FileStore`
    One envelope file per key in a shared directory. Multiple
    *processes* can read and write the same directory concurrently:
    writers publish atomically and both sides of a racing write store
    identical bytes for a key (content addressing), so the last rename
    wins with an indistinguishable result. The operating system's page
    cache keeps hot entries memory-speed — this is the file/mmap-backed
    shared tier that lets serve workers exchange results.
:class:`TieredStore`
    A read-through/write-through stack (typically LRU over FileStore):
    gets probe tiers in order and promote hits upward; puts write every
    tier.

Values are opaque text (callers serialize; the prediction cache stores
pre-encoded JSON fragments so a hit replays the cold compute's bytes
exactly).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

_PathLike = Union[str, Path]


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


# ----------------------------------------------------------------------
# Canonical hashing
# ----------------------------------------------------------------------


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable structure.

    Dataclasses become ``{field: value}`` dicts (recursively), enums their
    values, tuples/sets ordered lists — so two objects that compare equal
    canonicalize identically regardless of construction or field order.
    Unsupported types raise ``TypeError``: a cache key must never silently
    depend on ``repr`` noise such as memory addresses.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(item) for item in obj)
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for hashing")


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON form.

    Invariant under dict insertion order and dataclass field order;
    sensitive to every value reachable from ``obj``.
    """
    payload = json.dumps(
        canonical(obj), sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return _digest(payload)


def _digest(text: str) -> str:
    """SHA-256 hex digest of ``text``'s UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Atomic file plumbing
# ----------------------------------------------------------------------


def atomic_write_text(path: Path, text: str, suffix: str = ".json") -> None:
    """Publish ``text`` at ``path`` via a same-directory atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=suffix
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        unlink_quiet(Path(tmp))
        raise


def unlink_quiet(path: Path) -> None:
    """Remove a file, swallowing the races removal can lose."""
    try:
        path.unlink()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


@dataclass
class StoreStats:
    """Per-instance counters of one backend (or tier stack)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found but rejected (corrupt envelope, key mismatch...);
    #: each rejection is also a miss.
    errors: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class MemoryLRU:
    """In-process LRU text store (the zero-I/O first tier)."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = StoreStats()
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[str]:
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: str, value: str) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def drop(self, key: str) -> None:
        """Forget one entry if present (used to evict rejected values)."""
        self._entries.pop(key, None)

    def clear(self) -> int:
        """Drop every entry; return how many were held."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped


class FileStore:
    """Shared directory of ``{"key", "sha256", "value"}`` envelope files.

    The envelope carries the *full* key and the SHA-256 of the value
    text, so a hash-prefix filename collision or *any* byte damage to
    the file is detected at read time and treated as one error plus one
    miss (the offender is dropped best-effort). Safe for concurrent
    multi-process use: writes are atomic renames and identical keys
    store identical bytes.
    """

    def __init__(self, root: _PathLike, prefix: str = "kv") -> None:
        self.root = Path(root)
        self.prefix = prefix
        self.stats = StoreStats()

    def path_for(self, key: str) -> Path:
        return self.root / f"{self.prefix}-{key[:32]}.json"

    def get(self, key: str) -> Optional[str]:
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:  # absent (or unreadable): a plain miss
            self.stats.misses += 1
            return None
        try:
            # Bytes that no longer decode as text fail here too.
            envelope = json.loads(raw)
            if not isinstance(envelope, dict) or envelope.get("key") != key:
                raise ValueError("key mismatch")
            value = envelope["value"]
            if not isinstance(value, str) or _digest(value) != envelope.get(
                "sha256"
            ):
                raise ValueError("value fails its checksum")
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            unlink_quiet(path)
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: str) -> None:
        envelope = json.dumps(
            {"key": key, "sha256": _digest(value), "value": value},
            separators=(",", ":"),
        )
        atomic_write_text(self.path_for(key), envelope)
        self.stats.stores += 1

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for p in self.root.iterdir()
            if p.name.startswith(f"{self.prefix}-") and p.suffix == ".json"
        )

    def drop(self, key: str) -> None:
        """Remove one entry if present (used to evict rejected values)."""
        unlink_quiet(self.path_for(key))

    def clear(self) -> int:
        """Remove every entry of this prefix; return files removed."""
        removed = 0
        if self.root.is_dir():
            for path in sorted(self.root.iterdir()):
                if (
                    path.is_file()
                    and path.name.startswith(f"{self.prefix}-")
                    and path.suffix == ".json"
                ):
                    unlink_quiet(path)
                    removed += 1
        return removed


class TieredStore:
    """Read-through/write-through stack of backends (fastest first)."""

    def __init__(self, tiers: Sequence[Any]) -> None:
        if not tiers:
            raise ValueError("TieredStore needs at least one tier")
        self.tiers = list(tiers)
        self.stats = StoreStats()

    def get(self, key: str) -> Optional[str]:
        for i, tier in enumerate(self.tiers):
            value = tier.get(key)
            if value is not None:
                # Promote into the faster tiers so the next get is cheap.
                for upper in self.tiers[:i]:
                    upper.put(key, value)
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: str, value: str) -> None:
        for tier in self.tiers:
            tier.put(key, value)
        self.stats.stores += 1

    def tier_stats(self) -> List[Dict[str, int]]:
        return [tier.stats.as_dict() for tier in self.tiers]

    def clear(self) -> int:
        """Clear every tier; return the entry count the *last* (most
        durable) tier reported dropping."""
        dropped = 0
        for tier in self.tiers:
            dropped = tier.clear()
        return dropped
