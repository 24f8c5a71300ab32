"""Unit conventions and conversion helpers.

The library uses a single set of base units everywhere:

* **time**: nanoseconds (``float``),
* **frequency**: GHz,
* **energy**: joules,
* **power**: watts.

Choosing GHz and nanoseconds makes the most frequent conversion trivial:
``cycles = time_ns * freq_ghz`` and ``time_ns = cycles / freq_ghz``.
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigError

#: One GHz expressed in GHz (identity anchor; useful for readability).
GHZ = 1.0

#: One MHz expressed in GHz.
MHZ = 1.0e-3

_NS_PER_US = 1.0e3
_NS_PER_MS = 1.0e6
_NS_PER_S = 1.0e9


def ns_to_cycles(time_ns: float, freq_ghz: float) -> float:
    """Convert a duration in nanoseconds to clock cycles at ``freq_ghz``."""
    return time_ns * check_frequency("freq_ghz", freq_ghz)


def cycles_to_ns(cycles: float, freq_ghz: float) -> float:
    """Convert a cycle count at ``freq_ghz`` to a duration in nanoseconds."""
    return cycles / check_frequency("freq_ghz", freq_ghz)


def ns_to_ms(time_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return time_ns / _NS_PER_MS


def ms_to_ns(time_ms: float) -> float:
    """Convert milliseconds to nanoseconds."""
    return time_ms * _NS_PER_MS


def us_to_ns(time_us: float) -> float:
    """Convert microseconds to nanoseconds."""
    return time_us * _NS_PER_US


def ns_to_s(time_ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return time_ns / _NS_PER_S


def s_to_ns(time_s: float) -> float:
    """Convert seconds to nanoseconds."""
    return time_s * _NS_PER_S


def check_frequency(name: str, value: float, error: type = ConfigError) -> float:
    """The one GHz/uncore-scale check: ``value`` if finite and > 0 (NaN is
    not), else raise ``error``."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return value
