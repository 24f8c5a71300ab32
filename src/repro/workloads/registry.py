"""Benchmark registry: bundles a workload config with its JVM config and GC model.

A :class:`BenchmarkBundle` carries everything the experiment runner needs
to simulate one benchmark repeatedly (at several frequencies, under
governors) while sharing the frequency-independent pieces — most notably
the GC model's per-cycle program cache.

Constructing a bundle is cheap: it holds the workload config, and the
generated ``program`` and its ``gc_model`` are built on first access and
kept until :meth:`~BenchmarkBundle.release` drops them; the next access
rebuilds them bit-identically, since both are pure functions of the
configs. The Table I label, the machine spec and the cache-key
:attr:`~BenchmarkBundle.fingerprint` come from the configs alone, so a
run served entirely from the result cache generates no program.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.workloads.dacapo import (
    TABLE1_EXPECTED,
    dacapo_config,
    dacapo_jvm_config,
    dacapo_names,
)
from repro.workloads.program import Program
from repro.workloads.synthetic import SyntheticWorkloadConfig, build_synthetic_program

if TYPE_CHECKING:  # deferred at runtime: jvm.gc itself imports workloads
    from repro.jvm.gc import GcModel
    from repro.jvm.runtime import JvmConfig


@dataclass
class BenchmarkBundle:
    """One benchmark ready to simulate."""

    name: str
    config: SyntheticWorkloadConfig
    jvm_config: "JvmConfig"
    spec: MachineSpec = field(default_factory=haswell_i7_4770k)

    @functools.cached_property
    def program(self) -> Program:
        """The generated program, built once on first access."""
        return build_synthetic_program(self.config)

    @functools.cached_property
    def gc_model(self) -> "GcModel":
        """The GC model shared by every simulation of this bundle."""
        from repro.jvm.gc import GcModel

        return GcModel(self.jvm_config.gc, self.spec.dram, self.config.seed)

    def release(self) -> None:
        """Drop the built ``program`` and ``gc_model``, if any.

        Call it after a benchmark's last simulation: the memory goes
        back, and a later access rebuilds both from the configs.
        """
        self.__dict__.pop("program", None)
        self.__dict__.pop("gc_model", None)

    @property
    def type_label(self) -> str:
        """"M" for memory-intensive, "C" for compute-intensive."""
        return self.config.tags.get("type", "?")

    @property
    def is_memory_intensive(self) -> bool:
        """Paper classification (Table I)."""
        return self.type_label == "M"

    @property
    def fingerprint(self) -> dict:
        """Everything that determines this bundle's simulation inputs.

        Used as the benchmark half of persistent cache keys
        (:mod:`repro.experiments.cache`). Programs are pure functions of
        the workload config, so hashing the config — not the (large)
        generated program — identifies the workload.
        """
        return {
            "benchmark": self.name,
            "workload": self.config,
            "jvm": self.jvm_config,
            "spec": self.spec,
        }


def benchmark_names() -> Tuple[str, ...]:
    """All registered benchmark names (Table I order)."""
    return dacapo_names()


def get_benchmark(name: str, scale: float = 1.0) -> BenchmarkBundle:
    """The ready-to-run bundle for benchmark ``name``.

    ``scale`` shortens the run (1.0 reproduces Table I durations); the
    per-unit behaviour, and therefore the predictor-error structure, is
    scale-invariant.
    """
    return BenchmarkBundle(
        name=name,
        config=dacapo_config(name, scale),
        jvm_config=dacapo_jvm_config(name),
    )


__all__ = [
    "BenchmarkBundle",
    "TABLE1_EXPECTED",
    "benchmark_names",
    "dacapo_config",
    "get_benchmark",
]
