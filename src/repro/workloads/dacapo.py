"""Synthetic models of the paper's DaCapo benchmarks (Table I).

The paper evaluates seven multithreaded Java benchmarks (plus one variant)
on Jikes RVM inside Sniper. Running that stack is not possible offline, so
each benchmark is modeled as a :class:`~repro.workloads.synthetic.SyntheticWorkloadConfig`
whose structure mirrors what is documented about the benchmark, calibrated
so the simulated run reproduces Table I's headline characteristics at
1 GHz: execution time, GC time (hence the memory/compute classification),
heap size, and thread count.

Structural choices per benchmark:

* ``xalan`` — XSLT transformer: 4 threads pulling work from a shared queue
  (moderate lock contention), allocation-heavy (memory-intensive).
* ``pmd`` — source-code analyzer: 4 threads with a *scaling bottleneck*
  due to one large input file — modeled as thread work imbalance [14].
* ``pmd_scale`` — pmd with the bottleneck removed: balanced threads.
* ``lusearch`` — text search: independent query threads, very high
  allocation rate (the "needless allocation" fixed in lusearch_fix).
* ``lusearch_fix`` — same structure with allocation reduced ~8x [43].
* ``avrora`` — AVR microcontroller simulator: six threads with limited
  parallelism — modeled as a large fraction of each work unit executing
  under a global lock.
* ``sunflow`` — raytracer: barrier-synchronized tile rendering,
  compute-intensive with good cache locality.

Calibrated Table I targets are recorded in :data:`TABLE1_EXPECTED` and
checked by the ``Table I`` claims of :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.common.errors import ConfigError
from repro.jvm.gc import GcConfig
from repro.jvm.runtime import JvmConfig
from repro.workloads.synthetic import SyntheticWorkloadConfig


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table I."""

    name: str
    type_label: str  # "M" (memory-intensive) or "C" (compute-intensive)
    heap_mb: int
    exec_time_ms: float
    gc_time_ms: float


#: The paper's Table I (at 1 GHz). ``xalan`` is listed as "M/C" in the
#: paper's table but grouped with the memory-intensive benchmarks in the
#: text; we classify it "M".
TABLE1_EXPECTED: Dict[str, Table1Row] = {
    "xalan": Table1Row("xalan", "M", 108, 1400.0, 270.0),
    "pmd": Table1Row("pmd", "M", 98, 1345.0, 230.0),
    "pmd_scale": Table1Row("pmd_scale", "M", 98, 500.0, 80.0),
    "lusearch": Table1Row("lusearch", "M", 68, 2600.0, 285.0),
    "lusearch_fix": Table1Row("lusearch_fix", "C", 68, 1249.0, 42.0),
    "avrora": Table1Row("avrora", "C", 98, 1782.0, 5.0),
    "sunflow": Table1Row("sunflow", "C", 108, 4900.0, 82.0),
}

#: Memory-intensive benchmarks (paper Section IV / Figure 6 grouping).
MEMORY_INTENSIVE = ("xalan", "pmd", "pmd_scale", "lusearch")
#: Compute-intensive benchmarks.
COMPUTE_INTENSIVE = ("lusearch_fix", "avrora", "sunflow")


def _xalan() -> SyntheticWorkloadConfig:
    return SyntheticWorkloadConfig(
        name="xalan",
        seed=101,
        n_threads=4,
        n_units=8_700,
        unit_insns=150_000,
        cpi=0.6,
        clusters_per_kinsn=1.4,
        chain_depth_mean=1.7,
        chain_locality=0.35,
        alloc_bytes_per_unit=62_000,
        alloc_every=12,
        cs_probability=0.45,
        cs_insns=22_000,
        memory_skew=0.35,
        phase_amplitude=0.55,
        phase_periods=7.0,
        n_locks=1,
        heap_mb=108,
        nursery_mb=32,
        survival_rate=0.19,
        tags={"type": "M"},
    )


def _pmd(balanced: bool) -> SyntheticWorkloadConfig:
    name = "pmd_scale" if balanced else "pmd"
    return SyntheticWorkloadConfig(
        name=name,
        seed=103 if balanced else 102,
        n_threads=4,
        n_units=3_050 if balanced else 6_100,
        unit_insns=140_000,
        cpi=0.62,
        clusters_per_kinsn=1.3,
        chain_depth_mean=1.8,
        chain_locality=0.3,
        alloc_bytes_per_unit=68_000,
        alloc_every=12,
        cs_probability=0.5,
        cs_insns=24_000,
        memory_skew=0.3,
        n_locks=1,
        thread_imbalance=0.06 if balanced else 0.45,
        heap_mb=98,
        nursery_mb=32,
        survival_rate=0.175,
        tags={"type": "M"},
    )


def _lusearch(fixed: bool) -> SyntheticWorkloadConfig:
    name = "lusearch_fix" if fixed else "lusearch"
    return SyntheticWorkloadConfig(
        name=name,
        seed=105 if fixed else 104,
        n_units=8_900 if fixed else 16_800,
        n_threads=4,
        unit_insns=175_000,
        cpi=0.58,
        clusters_per_kinsn=0.9 if fixed else 1.1,
        chain_depth_mean=1.5,
        chain_locality=0.45,
        alloc_bytes_per_unit=12_000 if fixed else 75_000,
        alloc_every=10,
        cs_probability=0.12,
        cs_insns=12_000,
        memory_skew=0.45,
        phase_amplitude=0.6,
        phase_periods=9.0,
        n_locks=2,
        heap_mb=68,
        nursery_mb=16,
        survival_rate=0.17 if fixed else 0.075,
        tags={"type": "C" if fixed else "M"},
    )


def _avrora() -> SyntheticWorkloadConfig:
    return SyntheticWorkloadConfig(
        name="avrora",
        seed=106,
        n_threads=6,
        n_units=7_300,
        unit_insns=120_000,
        cpi=0.6,
        clusters_per_kinsn=0.4,
        chain_depth_mean=1.3,
        chain_locality=0.5,
        alloc_bytes_per_unit=1_500,
        alloc_every=16,
        cs_probability=0.0,
        serialized_fraction=0.55,
        memory_skew=0.6,
        heap_mb=98,
        nursery_mb=16,
        survival_rate=0.15,
        tags={"type": "C", "note": "limited parallelism"},
    )


def _sunflow() -> SyntheticWorkloadConfig:
    return SyntheticWorkloadConfig(
        name="sunflow",
        seed=107,
        n_threads=4,
        n_units=20_800,
        unit_insns=400_000,
        unit_insns_cv=0.45,
        cpi=0.55,
        clusters_per_kinsn=0.25,
        chain_depth_mean=1.3,
        chain_locality=0.6,
        alloc_bytes_per_unit=9_500,
        alloc_every=8,
        cs_probability=0.01,
        cs_insns=8_000,
        memory_skew=0.3,
        phase_amplitude=0.35,
        phase_periods=10.0,
        barrier_period=450,
        heap_mb=108,
        nursery_mb=16,
        survival_rate=0.18,
        tags={"type": "C"},
    )


_BUILDERS: Dict[str, Callable[[], SyntheticWorkloadConfig]] = {
    "xalan": _xalan,
    "pmd": lambda: _pmd(balanced=False),
    "pmd_scale": lambda: _pmd(balanced=True),
    "lusearch": lambda: _lusearch(fixed=False),
    "lusearch_fix": lambda: _lusearch(fixed=True),
    "avrora": _avrora,
    "sunflow": _sunflow,
}


def dacapo_names() -> Tuple[str, ...]:
    """All modeled benchmarks, Table I order."""
    return tuple(TABLE1_EXPECTED)


def dacapo_config(name: str, scale: float = 1.0) -> SyntheticWorkloadConfig:
    """The workload config of benchmark ``name`` (optionally length-scaled)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown DaCapo benchmark {name!r}; known: {sorted(_BUILDERS)}"
        )
    config = builder()
    if scale != 1.0:
        config = config.scaled(scale)
    return config


def dacapo_jvm_config(name: str) -> JvmConfig:
    """The JVM configuration used with benchmark ``name``."""
    if name not in _BUILDERS:
        raise ConfigError(f"unknown DaCapo benchmark {name!r}")
    gc = GcConfig(
        trace_insns_per_kb=550,
        trace_clusters_per_kb=4.5,
        trace_expansion=2.0,
        chunk_bytes=32_768,
        copy_drain_ns_per_store=2.2,
        imbalance=0.35,
    )
    return JvmConfig(gc=gc, zero_chunk_bytes=32_768, init_insns_per_chunk=900)
