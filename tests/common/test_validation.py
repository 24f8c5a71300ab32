"""Argument validation helpers."""

import pytest

from repro.common.errors import ConfigError
from repro.common.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_power_of_two,
    require,
)


def test_require_passes_and_fails():
    require(True, "fine")
    with pytest.raises(ConfigError, match="broken"):
        require(False, "broken")


def test_check_positive():
    assert check_positive("x", 3) == 3
    for bad in (0, -1, -0.5, float("nan")):
        with pytest.raises(ConfigError):
            check_positive("x", bad)


def test_check_non_negative():
    assert check_non_negative("x", 0) == 0
    for bad in (-1e-9, float("nan")):
        with pytest.raises(ConfigError):
            check_non_negative("x", bad)


def test_check_fraction():
    assert check_fraction("x", 0.0) == 0.0
    assert check_fraction("x", 1.0) == 1.0
    for bad in (-0.01, 1.01):
        with pytest.raises(ConfigError):
            check_fraction("x", bad)


def test_check_power_of_two():
    for good in (1, 2, 64, 4096):
        assert check_power_of_two("x", good) == good
    for bad in (0, 3, 6, -4):
        with pytest.raises(ConfigError):
            check_power_of_two("x", bad)
