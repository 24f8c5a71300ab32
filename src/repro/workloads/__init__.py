"""Workloads: the action IR, synthetic generators, and DaCapo benchmark models.

A *program* is a set of threads, each a deterministic sequence of actions
(timed segments, lock/barrier operations, managed allocations). The paper
evaluates seven multithreaded Java DaCapo benchmarks (Table I); since the
original JVM + Sniper stack is not reproducible offline, :mod:`~repro.workloads.dacapo`
provides synthetic models calibrated to each benchmark's published
characteristics (execution time and GC time at 1 GHz, memory- vs
compute-intensity, thread counts, synchronization style).
"""

from repro.workloads.items import (
    Acquire,
    Action,
    Allocate,
    BarrierWait,
    Release,
    Run,
    Sleep,
)
from repro.workloads.program import Program, ThreadProgram
from repro.workloads.synthetic import SyntheticWorkloadConfig, build_synthetic_program

__all__ = [
    "Acquire",
    "Action",
    "Allocate",
    "BarrierWait",
    "Program",
    "Release",
    "Run",
    "Sleep",
    "SyntheticWorkloadConfig",
    "ThreadProgram",
    "build_synthetic_program",
]
