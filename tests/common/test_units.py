"""Unit conversions."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import (
    cycles_to_ns,
    ms_to_ns,
    ns_to_cycles,
    ns_to_ms,
    ns_to_s,
    s_to_ns,
    us_to_ns,
)


def test_cycles_roundtrip():
    assert ns_to_cycles(100.0, 2.0) == pytest.approx(200.0)
    assert cycles_to_ns(200.0, 2.0) == pytest.approx(100.0)
    assert cycles_to_ns(ns_to_cycles(123.4, 3.5), 3.5) == pytest.approx(123.4)


def test_one_ghz_is_identity():
    assert ns_to_cycles(77.0, 1.0) == 77.0


def test_time_scale_conversions():
    assert ns_to_ms(5e6) == pytest.approx(5.0)
    assert ms_to_ns(5.0) == pytest.approx(5e6)
    assert us_to_ns(2.0) == pytest.approx(2000.0)
    assert ns_to_s(1e9) == pytest.approx(1.0)
    assert s_to_ns(1.5) == pytest.approx(1.5e9)


@pytest.mark.parametrize(
    "freq", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
)
def test_nonpositive_frequency_rejected(freq):
    with pytest.raises(ConfigError):
        ns_to_cycles(1.0, freq)
    with pytest.raises(ConfigError):
        cycles_to_ns(1.0, freq)
