"""Unit conversions."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import check_frequency, ns_to_ms


def test_time_scale_conversions():
    assert ns_to_ms(5e6) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "freq", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
)
def test_nonpositive_frequency_rejected(freq):
    with pytest.raises(ConfigError):
        check_frequency("freq_ghz", freq)
