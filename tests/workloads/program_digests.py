"""sha256 digests of generated programs, GC cycles and JIT threads.

A digest covers every action of every thread: its type and fields, and
for a :class:`MemorySegment` the raw bytes of its ``chain_ns`` array, so
any change to a drawn latency, a draw order or an action's position
moves it. ``tests/workloads/test_program_digests.py`` pins the digests
of the reduced-scale programs; run this module to print the DaCapo
digests at another scale::

    PYTHONPATH=src python -m tests.workloads.program_digests 1.0

The output is one ``<benchmark> <sha256>`` line per DaCapo program.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any, Iterable, Sequence

from repro.arch.segments import MemorySegment
from repro.workloads.dacapo import dacapo_names
from repro.workloads.items import Run
from repro.workloads.program import Program
from repro.workloads.registry import get_benchmark


def _update_actions(digest: Any, actions: Iterable[object]) -> None:
    for action in actions:
        segment = action.segment if isinstance(action, Run) else None
        if isinstance(segment, MemorySegment):
            digest.update(
                f"Run(MemorySegment({segment.insns!r}, {segment.cpi!r}, "
                f"{segment.leading_total_ns!r}, {segment.chain_ns.dtype.str}, "
                f"{segment.n_clusters}))\n".encode()
            )
            digest.update(segment.chain_ns.tobytes())
        else:
            digest.update(f"{action!r}\n".encode())


def program_digest(program: Program) -> str:
    """sha256 over a program's metadata and every action of every thread."""
    digest = hashlib.sha256()
    digest.update(
        f"{program.name!r} {program.heap_bytes!r} {program.nursery_bytes!r} "
        f"{program.survival_rate!r} {program.seed!r} "
        f"{sorted(program.tags.items())!r}\n".encode()
    )
    for thread in program.threads:
        digest.update(f"thread {thread.name!r}\n".encode())
        _update_actions(digest, thread.actions)
    return digest.hexdigest()


def workers_digest(workers: Sequence[Sequence[object]]) -> str:
    """sha256 over the per-worker action lists of one GC cycle."""
    digest = hashlib.sha256()
    for index, actions in enumerate(workers):
        digest.update(f"worker {index}\n".encode())
        _update_actions(digest, actions)
    return digest.hexdigest()


def actions_digest(actions: Sequence[object]) -> str:
    """sha256 over one action list (a JIT thread's program)."""
    digest = hashlib.sha256()
    _update_actions(digest, actions)
    return digest.hexdigest()


def dacapo_digest_lines(scale: float) -> str:
    """One ``<benchmark> <sha256>`` line per DaCapo program at ``scale``."""
    return "".join(
        f"{name} {program_digest(get_benchmark(name, scale).program)}\n"
        for name in dacapo_names()
    )


if __name__ == "__main__":
    sys.stdout.write(dacapo_digest_lines(float(sys.argv[1])))
