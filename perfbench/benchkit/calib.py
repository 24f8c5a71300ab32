"""Host speed, measured by a fixed pure-Python loop.

The host this benchmark was tuned on is shared: within minutes the
same code runs up to twice as slow and back, and CPU time moves with
wall time, so the host itself changes speed rather than the process
losing its turn. Every rep therefore times the loop right before and
after its job — in the worker, pinned to the CPU the job runs on; for
serve, on every CPU — and its times are reported in *reference
seconds*: scaled by ``REFERENCE_LOOP_S / loop``. A change to the
program moves the scaled times as much as the raw ones, while most of
the host's drift cancels. The raw times are reported too (``host.*``).
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the calibration loop.
LOOP_N = 400_000
#: The unit of a reference second: host seconds on a host where one loop
#: takes 20 ms (about what the 2-CPU container of BENCHMARK.md measures).
REFERENCE_LOOP_S = 0.020


def loop_s() -> float:
    """One timing of the fixed loop, in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i * i
    return time.perf_counter() - started


def loop_median_s(repeats: int = 3) -> float:
    """Median of ``repeats`` timings of the fixed loop."""
    return statistics.median(loop_s() for _ in range(repeats))


def current_cpu() -> int:
    """The CPU the calling process last ran on."""
    with open("/proc/self/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


def host_loop_s(repeats: int = 3) -> float:
    """Median loop time on each allowed CPU, averaged over the CPUs.

    The calling thread is pinned to each CPU in turn, because reps land
    on any of them.
    """
    before = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(before):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(loop_median_s(repeats))
    finally:
        os.sched_setaffinity(0, before)
    return sum(per_cpu) / len(per_cpu)


def to_reference(seconds: float, loop: float) -> float:
    """Host ``seconds`` measured while the loop took ``loop`` seconds,
    in reference-host seconds."""
    return seconds * REFERENCE_LOOP_S / loop
