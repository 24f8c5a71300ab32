"""Shared infrastructure: units, errors, deterministic RNG, validation, tables.

Conventions used throughout the code base (see :mod:`repro.common.units`):

* time is expressed in **nanoseconds** (``float``),
* frequency in **GHz** (so ``cycles = time_ns * freq_ghz``),
* energy in **joules**, power in **watts**,
* memory sizes in **bytes**.
"""

from repro.common.errors import (
    ConfigError,
    PredictionError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.common.rng import rng_stream
from repro.common.units import (
    GHZ,
    MHZ,
    ns_to_ms,
)

__all__ = [
    "ConfigError",
    "PredictionError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "rng_stream",
    "GHZ",
    "MHZ",
    "ns_to_ms",
]
