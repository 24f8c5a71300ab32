"""Small argument-validation helpers used by configuration dataclasses."""

from __future__ import annotations

import os
from typing import Optional

from repro.common.errors import ConfigError


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``REPRO_JOBS``, else 1.

    Shared by every ``--jobs`` CLI surface (``repro-experiments``,
    ``repro-fleet``, the grid drivers) so one environment variable
    widens them all consistently.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from exc
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(message)


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive (NaN is not); return it."""
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is >= 0 (NaN is not); return it."""
    if not value >= 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1]; return it."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_power_of_two(name: str, value: int) -> int:
    """Validate that ``value`` is a positive power of two; return it."""
    if value <= 0 or value & (value - 1) != 0:
        raise ConfigError(f"{name} must be a positive power of two, got {value!r}")
    return value
