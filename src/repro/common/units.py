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

_NS_PER_MS = 1.0e6


def ns_to_ms(time_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return time_ns / _NS_PER_MS


def check_frequency(name: str, value: float, error: type = ConfigError) -> float:
    """The one GHz/uncore-scale check: ``value`` if finite and > 0 (NaN is
    not), else raise ``error``."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return value
