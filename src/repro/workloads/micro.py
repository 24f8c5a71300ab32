"""Single-threaded microbenchmarks for sequential-predictor validation.

Section II.A of the paper rests on a decade of sequential DVFS predictors
(stall time, leading loads, CRIT) whose relative accuracy depends on the
memory behaviour of the workload. This module provides the classic
microbenchmark shapes those papers evaluated on, as deterministic
single-threaded programs:

* ``compute``        — pure ALU work; every model is trivially exact;
* ``pointer_chase``  — dependent misses in chains; leading loads
  underestimates (it counts one miss per cluster), CRIT is exact;
* ``streaming``      — independent misses, uniform latency; leading loads
  is designed for exactly this and does well;
* ``bank_conflicts`` — independent misses with highly variable latency;
  the leading miss is unrepresentative, which is CRIT's motivation;
* ``store_heavy``    — zero-init-style store bursts; every load-based
  model misses the non-scaling time, motivating BURST;
* ``mixed``          — a bit of everything.

The generators take an ``intensity`` knob so tests can sweep from
compute-bound to memory-bound variants.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import rng_stream
from repro.arch.dram import ChainSampler, DramConfig
from repro.arch.segments import ComputeSegment, StoreBurstSegment
from repro.workloads.items import Action, Run
from repro.workloads.program import Program, sequential_program

_CPI = 0.55
_UNIT_INSNS = 80_000


def _memory_units(
    seed: int,
    stream: str,
    dram: DramConfig,
    units: int,
    n_clusters: int,
    depth: int,
    locality: float,
) -> List[Action]:
    """``units`` memory units of ``n_clusters`` chains of ``depth`` misses."""
    chains = ChainSampler(rng_stream(seed, stream), dram, locality, Run)
    actions: List[Action] = []
    for _ in range(units):
        chains.draw(n_clusters, depth=depth)
        chains.place(actions, _UNIT_INSNS, _CPI)
    chains.flush()
    return actions


def compute(units: int = 40, intensity: float = 1.0, seed: int = 11) -> Program:
    """Pure pipeline work."""
    del intensity, seed
    actions: List[Action] = [
        Run(ComputeSegment(insns=_UNIT_INSNS, cpi=_CPI)) for _ in range(units)
    ]
    return sequential_program("micro-compute", actions)


def pointer_chase(units: int = 40, intensity: float = 1.0,
                  seed: int = 12) -> Program:
    """Dependent-miss chains (linked-list walks)."""
    actions = _memory_units(
        seed, "chase", DramConfig(), units,
        n_clusters=max(1, int(30 * intensity)), depth=4, locality=0.15,
    )
    return sequential_program("micro-pointer-chase", actions)


def streaming(units: int = 40, intensity: float = 1.0, seed: int = 13) -> Program:
    """Independent misses with uniform latency (sequential sweep)."""
    # High locality -> almost every access is a row hit: uniform latency.
    actions = _memory_units(
        seed, "stream", DramConfig(queue_ns_per_request=0.5), units,
        n_clusters=max(1, int(80 * intensity)), depth=1, locality=0.95,
    )
    return sequential_program("micro-streaming", actions)


def bank_conflicts(units: int = 40, intensity: float = 1.0,
                   seed: int = 14) -> Program:
    """Independent misses with wildly variable latency (CRIT's motivation)."""
    dram = DramConfig(row_hit_ns=30.0, row_conflict_ns=110.0,
                      queue_ns_per_request=14.0)
    actions = _memory_units(
        seed, "conflict", dram, units,
        n_clusters=max(1, int(60 * intensity)), depth=1, locality=0.1,
    )
    return sequential_program("micro-bank-conflicts", actions)


def store_heavy(units: int = 40, intensity: float = 1.0,
                seed: int = 15) -> Program:
    """Zero-init-style store bursts (BURST's motivation)."""
    del seed
    n_stores = max(64, int(6_000 * intensity))
    actions: List[Action] = []
    for _ in range(units):
        actions.append(Run(ComputeSegment(insns=_UNIT_INSNS // 2, cpi=_CPI)))
        actions.append(
            Run(StoreBurstSegment(n_stores=n_stores, drain_ns_per_store=1.5))
        )
    return sequential_program("micro-store-heavy", actions)


def mixed(units: int = 40, intensity: float = 1.0, seed: int = 16) -> Program:
    """Alternating compute, chases, streams and store bursts."""
    # Chases and streams share one RNG stream, each with its own locality.
    rng = rng_stream(seed, "mixed")
    chase = ChainSampler(rng, DramConfig(), 0.2, Run)
    stream = ChainSampler(rng, DramConfig(), 0.9, Run)
    actions: List[Action] = []
    for unit in range(units):
        kind = unit % 4
        if kind == 0:
            actions.append(Run(ComputeSegment(insns=_UNIT_INSNS, cpi=_CPI)))
        elif kind == 1:
            chase.draw(max(1, int(20 * intensity)), depth=3)
            chase.place(actions, _UNIT_INSNS, _CPI)
        elif kind == 2:
            stream.draw(max(1, int(50 * intensity)), depth=1)
            stream.place(actions, _UNIT_INSNS, _CPI)
        else:
            actions.append(
                Run(StoreBurstSegment(n_stores=max(64, int(3_000 * intensity)),
                                      drain_ns_per_store=1.5))
            )
    chase.flush()
    stream.flush()
    return sequential_program("micro-mixed", actions)


_MICROBENCHMARKS: Dict[str, Callable[..., Program]] = {
    "compute": compute,
    "pointer_chase": pointer_chase,
    "streaming": streaming,
    "bank_conflicts": bank_conflicts,
    "store_heavy": store_heavy,
    "mixed": mixed,
}


def micro_names() -> Tuple[str, ...]:
    """All microbenchmark names."""
    return tuple(_MICROBENCHMARKS)


def get_micro(name: str, units: int = 40, intensity: float = 1.0) -> Program:
    """Build microbenchmark ``name``."""
    builder = _MICROBENCHMARKS.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown microbenchmark {name!r}; known: {sorted(_MICROBENCHMARKS)}"
        )
    return builder(units=units, intensity=intensity)
