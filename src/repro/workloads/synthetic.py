"""Parametric synthetic workload generator.

One configurable generator covers the structural space the DaCapo models
need (:mod:`repro.workloads.dacapo` instantiates it per benchmark):

* data-parallel work units with lognormal size variation,
* LLC-miss clusters drawn through the DRAM model (variable latency),
* managed allocation (driving zero-init bursts and the GC schedule),
* critical sections over a configurable lock set,
* optional barrier phases (tile renderers) and a serialized fraction
  executed under a global lock (limited-parallelism workloads),
* per-thread work imbalance (scaling bottlenecks).

Generation is fully deterministic in ``(seed, thread index)``; the same
config always yields the identical logical program, which the simulator
then executes at any frequency.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.rng import rng_stream
from repro.common.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    require,
)
from repro.arch.dram import ChainSampler, DramConfig
from repro.arch.segments import ComputeSegment
from repro.workloads.items import (
    Acquire,
    Action,
    Allocate,
    BarrierWait,
    Release,
    Run,
)
from repro.workloads.program import Program, ThreadProgram

#: Barrier-id namespace for generated application barriers (below the GC
#: collector's 1 << 20 namespace).
_APP_BARRIER_BASE = 1 << 10
#: Lock id reserved for the global serialization lock.
_GLOBAL_LOCK = 0
#: First id for ordinary critical-section locks.
_CS_LOCK_BASE = 1


@dataclass(frozen=True)
class SyntheticWorkloadConfig:
    """Knobs of the synthetic workload generator."""

    name: str = "synthetic"
    seed: int = 1
    n_threads: int = 4
    #: Work units per thread.
    n_units: int = 500
    #: Mean instructions per unit (before per-thread imbalance).
    unit_insns: int = 60_000
    #: Coefficient of variation of unit sizes.
    unit_insns_cv: float = 0.3
    cpi: float = 0.6
    #: LLC-miss clusters per 1000 instructions (memory intensity).
    clusters_per_kinsn: float = 0.6
    #: Mean dependent-chain depth of a cluster (geometric).
    chain_depth_mean: float = 1.6
    #: DRAM row locality of cluster accesses.
    chain_locality: float = 0.4
    #: Mean bytes allocated per unit (0 disables allocation).
    alloc_bytes_per_unit: int = 16_384
    #: Allocate every k-th unit (allocation batch granularity).
    alloc_every: int = 4
    #: Probability a unit contains a critical section.
    cs_probability: float = 0.10
    #: Instructions executed inside a critical section.
    cs_insns: int = 8_000
    #: Number of distinct critical-section locks.
    n_locks: int = 4
    #: Barrier every k units (0 disables barriers).
    barrier_period: int = 0
    #: Per-thread work multipliers; thread t gets
    #: ``unit_insns * (1 + thread_imbalance * t / (n_threads - 1))``.
    thread_imbalance: float = 0.0
    #: Per-thread *memory intensity* skew: thread t's LLC-miss cluster rate
    #: is multiplied by ``1 + memory_skew * (2t/(n_threads-1) - 1)`` —
    #: some threads are memory-bound, others compute-bound, so the critical
    #: thread changes with frequency (what across-epoch CTP is for).
    memory_skew: float = 0.0
    #: Program-level phase behaviour: memory intensity and allocation rate
    #: are modulated by ``1 + phase_amplitude * sin(...)`` with
    #: ``phase_periods`` full cycles over the run (all threads in phase,
    #: mirroring input-driven phases). Phases are what a *dynamic* energy
    #: manager exploits over a static-optimal frequency (Figure 7).
    phase_amplitude: float = 0.0
    phase_periods: float = 8.0
    #: Fraction of each unit's instructions executed under the global lock.
    serialized_fraction: float = 0.0
    heap_mb: int = 98
    nursery_mb: int = 16
    survival_rate: float = 0.2
    #: Free-form classification tags.
    tags: Dict[str, str] = field(default_factory=dict)
    dram: DramConfig = field(default_factory=DramConfig)

    def __post_init__(self) -> None:
        check_positive("n_threads", self.n_threads)
        check_positive("n_units", self.n_units)
        check_positive("unit_insns", self.unit_insns)
        check_positive("cpi", self.cpi)
        check_non_negative("clusters_per_kinsn", self.clusters_per_kinsn)
        check_non_negative("alloc_bytes_per_unit", self.alloc_bytes_per_unit)
        check_positive("alloc_every", self.alloc_every)
        check_fraction("cs_probability", self.cs_probability)
        check_fraction("serialized_fraction", self.serialized_fraction)
        check_fraction("chain_locality", self.chain_locality)
        check_non_negative("thread_imbalance", self.thread_imbalance)
        check_fraction("memory_skew", self.memory_skew)
        check_fraction("phase_amplitude", self.phase_amplitude)
        check_positive("phase_periods", self.phase_periods)
        check_non_negative("barrier_period", self.barrier_period)
        check_positive("heap_mb", self.heap_mb)
        check_positive("nursery_mb", self.nursery_mb)

    def scaled(self, scale: float) -> "SyntheticWorkloadConfig":
        """A copy with the run length scaled by ``scale`` (units count).

        Scaling preserves per-unit behaviour (memory intensity, sync rates,
        allocation density), so GC frequency and predictor error structure
        survive; only the run gets shorter.
        """
        require(
            math.isfinite(scale) and scale > 0,
            f"scale must be a finite number > 0, got {scale!r}",
        )
        return replace(self, n_units=max(8, int(round(self.n_units * scale))))

    @functools.cached_property
    def canonical_json(self) -> str:
        """The config as sorted-key JSON (nested dataclasses as objects),
        the text its content hashes are taken over.

        Serialized on first use and kept on the instance, like
        ``TenantSpec``'s profile key: the config is frozen, and the memo
        is not a field, so equality, ``asdict`` and ``replace`` never
        see it.
        """
        return json.dumps(self, sort_keys=True, default=_field_dict)


def _field_dict(value: Any) -> Dict[str, Any]:
    """``json.dumps`` hook for (nested) dataclasses: the JSON it yields
    is that of ``dataclasses.asdict``, without asdict's deep copies."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def build_synthetic_program(config: SyntheticWorkloadConfig) -> Program:
    """Generate the deterministic :class:`Program` described by ``config``."""
    threads: List[ThreadProgram] = []
    for t in range(config.n_threads):
        threads.append(_build_thread(config, t))
    return Program(
        name=config.name,
        threads=tuple(threads),
        heap_bytes=config.heap_mb << 20,
        nursery_bytes=config.nursery_mb << 20,
        survival_rate=config.survival_rate,
        seed=config.seed,
        tags=dict(config.tags),
    )


def _build_thread(config: SyntheticWorkloadConfig, t: int) -> ThreadProgram:
    rng = rng_stream(config.seed, "thread", t)
    chains = ChainSampler(rng, config.dram, config.chain_locality, Run)
    actions: List[Action] = []
    if config.n_threads > 1 and config.thread_imbalance > 0:
        work_multiplier = 1.0 + config.thread_imbalance * t / (config.n_threads - 1)
    else:
        work_multiplier = 1.0
    if config.n_threads > 1 and config.memory_skew > 0:
        memory_multiplier = 1.0 + config.memory_skew * (
            2.0 * t / (config.n_threads - 1) - 1.0
        )
    else:
        memory_multiplier = 1.0
    mean_insns = config.unit_insns * work_multiplier
    lognormal = _lognormal_params(mean_insns, config.unit_insns_cv)
    barrier_counter = 0
    phase_omega = 2.0 * np.pi * config.phase_periods / config.n_units
    for unit in range(config.n_units):
        if config.phase_amplitude:
            phase_mod = 1.0 + config.phase_amplitude * float(
                np.sin(phase_omega * unit)
            )
        else:
            phase_mod = 1.0
        if config.barrier_period and unit and unit % config.barrier_period == 0:
            actions.append(
                BarrierWait(
                    barrier_id=_APP_BARRIER_BASE + barrier_counter,
                    parties=config.n_threads,
                )
            )
            barrier_counter += 1
        if lognormal is None:
            insns = max(100, int(mean_insns))
        else:
            insns = max(100, int(rng.lognormal(*lognormal)))
        serial_insns = int(insns * config.serialized_fraction)
        parallel_insns = insns - serial_insns
        intensity = memory_multiplier * phase_mod
        if serial_insns > 0:
            actions.append(Acquire(lock_id=_GLOBAL_LOCK))
            _memory_segment(config, rng, chains, actions, serial_insns, intensity)
            actions.append(Release(lock_id=_GLOBAL_LOCK))
        if parallel_insns > 0:
            _memory_segment(config, rng, chains, actions, parallel_insns, intensity)
        if config.cs_probability and rng.random() < config.cs_probability:
            lock = _CS_LOCK_BASE + int(rng.integers(0, config.n_locks))
            actions.append(Acquire(lock_id=lock))
            actions.append(
                Run(ComputeSegment(insns=config.cs_insns, cpi=config.cpi))
            )
            actions.append(Release(lock_id=lock))
        if (
            config.alloc_bytes_per_unit
            and (unit + 1) % config.alloc_every == 0
        ):
            batch = config.alloc_bytes_per_unit * config.alloc_every
            n_bytes = int(batch * (0.5 + rng.random()) * phase_mod)
            n_bytes = max(1024, min(n_bytes, (config.nursery_mb << 20) // 4))
            actions.append(Allocate(n_bytes=n_bytes))
    chains.flush()
    # Make every thread arrive at all barriers it announced (threads all
    # generate the same barrier schedule because periods are unit-indexed).
    return ThreadProgram(name=f"{config.name}-worker-{t}", actions=tuple(actions))


def _lognormal_params(mean: float, cv: float) -> Optional[Tuple[float, float]]:
    """``(mu, sigma)`` of unit instruction counts with the given mean and
    variation, or None when units do not vary."""
    if cv <= 0:
        return None
    sigma = float(np.sqrt(np.log(1.0 + cv * cv)))
    return float(np.log(mean) - 0.5 * sigma * sigma), sigma


def _memory_segment(
    config: SyntheticWorkloadConfig,
    rng: np.random.Generator,
    chains: ChainSampler,
    actions: List[Action],
    insns: int,
    memory_multiplier: float,
) -> None:
    """Append a unit's main segment: compute plus sampled LLC-miss clusters."""
    expected = config.clusters_per_kinsn * memory_multiplier * insns / 1000.0
    n_clusters = int(rng.poisson(expected)) if expected > 0 else 0
    chains.draw(n_clusters, mean_depth=config.chain_depth_mean)
    chains.place(actions, insns, config.cpi)
