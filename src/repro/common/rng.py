"""Deterministic random-number streams.

Every stochastic choice in the simulator (DRAM bank conflicts, workload
shapes, lock contention jitter) must be *identical* across simulations of the
same program at different frequencies — otherwise prediction error would be
polluted by workload noise rather than reflecting model fidelity, which is
the quantity the paper measures.

:func:`rng_stream` derives an independent :class:`numpy.random.Generator`
from a root seed and a tuple of string/int keys, so that every component gets
its own reproducible stream regardless of the order components are
constructed in.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

_Key = Union[str, int]


def rng_stream(seed: int, *keys: _Key) -> np.random.Generator:
    """Return a deterministic, independent RNG stream.

    Parameters
    ----------
    seed:
        Root seed (one per benchmark/program, typically).
    keys:
        Hierarchical identifiers, e.g. ``("thread", 3, "mem")``. Different
        key tuples yield statistically independent streams; the same tuple
        always yields the same stream.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(seed)).encode("ascii"))
    for key in keys:
        hasher.update(b"/")
        hasher.update(str(key).encode("utf-8"))
    digest = hasher.digest()
    child_seed = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(child_seed)
