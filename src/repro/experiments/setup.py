"""Shared experiment configuration."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Tuple

from repro.common.errors import ConfigError
from repro.workloads.dacapo import COMPUTE_INTENSIVE, MEMORY_INTENSIVE, dacapo_names


def _scale_from_env() -> float:
    """Read REPRO_SCALE (default 1.0 = the paper's full run lengths)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigError(f"REPRO_SCALE must be a number, got {raw!r}") from exc
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(
            f"REPRO_SCALE must be a finite number > 0, got {raw!r}"
        )
    return scale


@dataclass(frozen=True)
class ExperimentConfig:
    """What the experiment suite runs."""

    #: Benchmark run-length scale (1.0 reproduces Table I durations).
    scale: float = field(default_factory=_scale_from_env)
    benchmarks: Tuple[str, ...] = field(default_factory=dacapo_names)
    #: Target frequencies predicted from the 1 GHz base (Figures 1, 3a).
    targets_up_ghz: Tuple[float, ...] = (2.0, 3.0, 4.0)
    #: Target frequencies predicted from the 4 GHz base (Figure 3b).
    targets_down_ghz: Tuple[float, ...] = (3.0, 2.0, 1.0)
    #: Fixed frequencies swept for the static-optimal oracle (Figure 7).
    static_freqs_ghz: Tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    #: Slowdown thresholds of the energy case study (Figures 6, 7).
    thresholds: Tuple[float, ...] = (0.05, 0.10)
    #: Scheduling quantum (paper: 5 ms).
    quantum_ns: float = 5.0e6

    @property
    def memory_intensive(self) -> Tuple[str, ...]:
        """Memory-intensive subset, preserving configured order."""
        return tuple(b for b in self.benchmarks if b in MEMORY_INTENSIVE)

    @property
    def compute_intensive(self) -> Tuple[str, ...]:
        """Compute-intensive subset, preserving configured order."""
        return tuple(b for b in self.benchmarks if b in COMPUTE_INTENSIVE)


def default_config() -> ExperimentConfig:
    """The suite configuration (honours ``REPRO_SCALE``)."""
    return ExperimentConfig()
