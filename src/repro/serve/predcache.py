"""Cross-worker shared prediction cache for the serve tier.

Prediction is pure: the reply to a ``predict`` request is a function of
the request payload, the machine spec and the prediction-kernel
revision. That makes replies cacheable across *processes* — a governor
fleet asking the same question twice (or two workers asked the same
question once each) should pay the vectorized evaluation exactly once.

**One key, from the request bytes.** A key is SHA-256 over an identity
block (this module's schema version, the sweep-kernel
``KERNEL_VERSION`` and the spec fingerprint — a kernel revision must
never replay another revision's results) followed by the request line
with its trailing id cut off by :func:`split_raw_line`. Two requests
share an entry exactly when their bytes are equal apart from that id,
so the lookup runs before any JSON decode and can only miss, never
mis-hit: ``1`` vs ``1.0``, field order or whitespace key differently.

**Uncached frames.** A predict frame whose last member is not an
unsigned-integer ``"id"``, or that does not open with the client layout
``{"v":N,"kind":"predict",`` (:meth:`PredictionCache.split_key`), is
answered by an ordinary cold compute and never stored. Every in-repo sender uses
that layout; other senders get correct answers, just slower.

**Values** are the **pre-encoded JSON result fragments** the server
would have written, not re-parsed objects: a hit splices the cold
compute's exact bytes into the reply envelope, so hits are
byte-identical to cold computes by construction. A fragment is only
stored after its request decoded, validated and evaluated cleanly.

**Tiers.** The backing store is a :class:`repro.common.store.TieredStore`
probed fastest first: a per-worker in-process LRU, then an optional
file-backed directory all pool workers share, whose checksummed
envelopes turn a damaged file into a miss. A file-tier hit is promoted
into the LRU.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.store import (
    FileStore,
    MemoryLRU,
    TieredStore,
    stable_hash,
)
from repro.serve.protocol import PROTOCOL_VERSION

#: Bump when the predict reply schema or the key rule changes: every
#: existing entry becomes unreachable instead of replaying a stale shape.
#: (2: keys hash the id-stripped request bytes.)
PREDICT_CACHE_SCHEMA = 2

_ID_TOKEN = b',"id":'
#: How every in-repo sender opens a predict frame; other layouts are
#: answered uncached.
_PREDICT_HEAD = b'{"v":%d,"kind":"predict",' % PROTOCOL_VERSION


def split_raw_line(line: bytes) -> Optional[Tuple[bytes, bytes]]:
    """Split a wire line into ``(id-stripped prefix, id digits)``.

    Matches only frames whose *last* member is an unsigned-integer
    ``"id"``: the line must end with ``,"id":<digits>}\\n``. In valid
    JSON that suffix can only be the root object's trailing member —
    a nested object would be followed by more closing brackets, a key
    merely ending in ``id`` breaks the ``,"`` anchor, and a string
    value cannot end in bare digits before the final brace. So two
    lines with equal prefixes are the *same request* (modulo id), which
    is what makes the prefix safe to key a byte-exact reply cache by.

    Anything else (id elsewhere, non-integer id, leading zeros — not
    valid JSON — or unusual whitespace) returns None and the frame is
    answered uncached; the cache can only miss, never mis-hit.
    """
    if not line.endswith(b"}\n"):
        return None
    i = line.rfind(_ID_TOKEN)
    if i <= 0:
        return None
    digits = line[i + len(_ID_TOKEN):-2]
    if not digits.isdigit():
        return None
    if digits[:1] == b"0" and len(digits) > 1:
        return None
    return line[:i] + b"}", digits


def kernel_fingerprint() -> Dict[str, Any]:
    """The prediction-engine identity that participates in every key."""
    from repro.core.sweep import KERNEL_VERSION

    return {"engine": "vectorized", "kernel_version": KERNEL_VERSION}


def spec_fingerprint(spec: Any) -> str:
    """Content hash of the machine spec predictions are evaluated under."""
    return stable_hash(spec)


class PredictionCache:
    """Tiered (LRU + optional shared-file) store of predict result fragments."""

    def __init__(
        self,
        spec: Any,
        shared_dir: Optional[str] = None,
        max_memory_entries: int = 4096,
    ) -> None:
        tiers: list = []
        if max_memory_entries > 0:
            tiers.append(MemoryLRU(max_entries=max_memory_entries))
        if shared_dir is not None:
            tiers.append(FileStore(shared_dir, prefix="predict"))
        if not tiers:
            raise ValueError(
                "prediction cache needs a memory tier and/or a shared_dir"
            )
        self.store = TieredStore(tiers)
        identity = json.dumps(
            {
                "schema": PREDICT_CACHE_SCHEMA,
                "kernel": kernel_fingerprint(),
                "spec": spec_fingerprint(spec),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        # Each key hashes on from a copy of the identity block's state.
        self._identity_hash = hashlib.sha256(identity.encode("utf-8") + b"\n")

    # ------------------------------------------------------------------

    def split_key(self, line: bytes) -> Optional[Tuple[str, bytes]]:
        """``(cache key, id digits)`` of one request line (None = uncached).

        Only client-layout predict frames are keyed: the line opens with
        ``{"v":N,"kind":"predict",`` and ends with a trailing integer id
        (:func:`split_raw_line`). The key hashes the id-stripped bytes
        as they are, so any byte difference keys differently — a miss,
        never a wrong hit — and client-layout govern, health and stats
        frames never touch the store.
        """
        if not line.startswith(_PREDICT_HEAD):
            return None
        split = split_raw_line(line)
        if split is None:
            return None
        digest = self._identity_hash.copy()
        digest.update(split[0])
        return digest.hexdigest(), split[1]

    def lookup(self, key: str) -> Optional[str]:
        """The stored result fragment for ``key``, or None.

        Fragments from the file tier may have been corrupted after the
        envelope was written; a fragment that is not a JSON object text
        is rejected (miss) rather than spliced into a reply.
        """
        fragment = self.store.get(key)
        if fragment is None:
            return None
        text = fragment.strip()
        if not (text.startswith("{") and text.endswith("}")):
            return None
        return fragment

    def record(self, key: str, result: Mapping[str, Any]) -> str:
        """Serialize ``result`` once, store the fragment, and return it."""
        fragment = json.dumps(result, separators=(",", ":"), allow_nan=False)
        self.store.put(key, fragment)
        return fragment

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/store counters: overall plus per tier."""
        overall = self.store.stats.as_dict()
        overall["tiers"] = self.store.tier_stats()
        return overall
