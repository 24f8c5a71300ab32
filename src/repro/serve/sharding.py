"""Deterministic worker sharding for the multi-worker serve tier.

Two parties must agree on which worker owns what, without talking to
each other:

* the **sharded client** pins a session to a worker before opening it,
  and speaks to that worker's private endpoint for the whole stream
  (governor sessions are stateful and ordered);
* each **worker** mints session ids that carry its own identity
  (``g7@w1``), so a session id names its home worker on its face.

The agreement is content-addressed, like the result caches: a session
*key* (any string the client chooses — tenant id, benchmark name, a
UUID) hashes to a worker index via SHA-256 (:func:`shard_for_key`).
Python's builtin ``hash()`` is never used: it is salted per process, and
two processes that disagree about a session's home worker would split
one governor stream in half.
"""

from __future__ import annotations

import hashlib
from typing import List

#: Separator between a worker-local session id and its worker affinity tag.
AFFINITY_SEP = "@w"


def shard_for_key(key: str, n_workers: int) -> int:
    """Consistent worker index for an arbitrary string key.

    SHA-256-based so every process — client or worker — computes
    the same shard for the same key, on any platform, in any run.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_workers


def tag_session_id(local_id: str, worker_id: int) -> str:
    """Embed worker affinity in a session id (``g7`` -> ``g7@w2``)."""
    return f"{local_id}{AFFINITY_SEP}{worker_id}"


# ----------------------------------------------------------------------
# Worker endpoint naming
# ----------------------------------------------------------------------


def worker_socket_path(pool_path: str, worker_id: int) -> str:
    """The private unix-socket path of one worker of a pool on ``pool_path``."""
    return f"{pool_path}.w{worker_id}"


def worker_socket_paths(pool_path: str, n_workers: int) -> List[str]:
    """Every worker's private unix-socket path for a pool on ``pool_path``."""
    return [worker_socket_path(pool_path, i) for i in range(n_workers)]
