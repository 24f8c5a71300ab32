"""Batched timing kernels against ``time_segment`` on the DaCapo programs.

Times every static segment of the seven DaCapo programs (the segment of
every ``Run`` action of every thread) with
:meth:`~repro.arch.core.CoreModel.time_batch` and
:meth:`~repro.arch.core.CoreModel.time_batch_multi` at every frequency of
:data:`FREQS`, and compares each wall time and counter set with the
scalar :meth:`~repro.arch.core.CoreModel.time_segment` bit for bit.
``tests/arch/test_timing_parity.py`` runs it at reduced scale; run this
module to check another scale::

    PYTHONPATH=src python -m tests.arch.timing_parity 1.0

It prints one ``<benchmark> <segments> ok`` line per program and exits 1
after the first program with a mismatch, naming its first mismatches.
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Sequence, Tuple

from repro.arch.core import CoreModel
from repro.arch.segments import Segment, SegmentBatch
from repro.arch.specs import haswell_i7_4770k
from repro.workloads.dacapo import build_dacapo, dacapo_names
from repro.workloads.items import Run

#: Target frequencies, GHz: the paper's 1-4 GHz ladder in 0.5 GHz steps.
FREQS: Tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

#: Consecutive segments timed per batch. Bounds a batch's cluster arrays
#: while still spanning many ``time_batch_multi`` chunks.
GROUP = 2048

#: Mismatches reported per program.
MAX_REPORTED = 5


def program_segments(program) -> List[Segment]:
    """Every thread's ``Run`` segments, thread by thread, in order."""
    return [
        action.segment
        for thread in program.threads
        for action in thread.actions
        if isinstance(action, Run)
    ]


def _bits(wall: float, counters) -> str:
    # repr round-trips a float exactly and tells -0.0 from 0.0.
    return f"{wall!r} {counters!r}"


def mismatches(
    core: CoreModel, segments: Sequence[Segment], freqs: Sequence[float]
) -> Iterator[str]:
    """One message per (segment, frequency, kernel) that differs from
    ``time_segment``, in segment order."""
    for lo in range(0, len(segments), GROUP):
        group = segments[lo : lo + GROUP]
        batch = SegmentBatch(group)
        multi = core.time_batch_multi(batch, freqs)
        for freq, multi_timing in zip(freqs, multi):
            single = core.time_batch(batch, freq)
            for i, segment in enumerate(group):
                solo = core.time_segment(segment, freq)
                want = _bits(solo.wall_ns, solo.counters)
                for kernel, timing in (
                    ("time_batch", single), ("time_batch_multi", multi_timing)
                ):
                    got = _bits(timing.walls[i], timing.counters[i])
                    if got != want:
                        yield (
                            f"segment {lo + i} at {freq} GHz: {kernel} "
                            f"gives {got}, time_segment {want}"
                        )


def check_scale(scale: float) -> Iterator[Tuple[str, int, List[str]]]:
    """``(benchmark, n_segments, first mismatches)`` per DaCapo program."""
    core = CoreModel(haswell_i7_4770k())
    for name in dacapo_names():
        segments = program_segments(build_dacapo(name, scale))
        found: List[str] = []
        for message in mismatches(core, segments, FREQS):
            found.append(message)
            if len(found) == MAX_REPORTED:
                break
        yield name, len(segments), found


def main(argv: Sequence[str]) -> int:
    scale = float(argv[0]) if argv else 1.0
    for name, n_segments, found in check_scale(scale):
        if found:
            print(f"{name} {n_segments} MISMATCH")
            for message in found:
                print(f"  {message}")
            return 1
        print(f"{name} {n_segments} ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
