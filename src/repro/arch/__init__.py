"""Microarchitecture substrate: cores, caches, DRAM, store queue, counters.

This package plays the role Sniper plays in the paper: it provides the
timing model whose behaviour the DVFS predictors try to predict. The model
is *segment level* rather than cycle level — work arrives as segments
(compute, memory phases with LLC-miss clusters, store bursts) and the core
model converts each segment into wall-clock time at a given frequency while
maintaining the performance counters the predictors read:

* CRIT's accumulated critical-path memory latency,
* the leading-loads latency,
* the stall-time counter,
* the paper's proposed store-queue-full counter (Section III.E).
"""

from repro.arch.cache import CacheConfig
from repro.arch.clusters import (
    ClusterSpec,
    ClusterTopology,
    big_little,
    homogeneous,
)
from repro.arch.core import CoreModel, SegmentTiming
from repro.arch.counters import CounterSet
from repro.arch.dram import ChainSampler, DramConfig
from repro.arch.frequency import DvfsDomain
from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.arch.storequeue import StoreQueueConfig, StoreQueueModel, StoreBurstTiming

__all__ = [
    "CacheConfig",
    "ChainSampler",
    "ClusterSpec",
    "ClusterTopology",
    "CoreModel",
    "CounterSet",
    "DramConfig",
    "DvfsDomain",
    "MachineSpec",
    "SegmentTiming",
    "StoreBurstTiming",
    "StoreQueueConfig",
    "StoreQueueModel",
    "big_little",
    "haswell_i7_4770k",
    "homogeneous",
]
