"""Cache geometry."""

import pytest

from repro.arch.cache import CacheConfig


def test_geometry():
    config = CacheConfig(
        name="L1", size_bytes=32 * 1024, assoc=4, line_bytes=64, latency_cycles=2
    )
    assert config.n_sets == 128
    assert config.n_lines == 512


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(name="X", size_bytes=1000, assoc=3, line_bytes=64,
                    latency_cycles=1)
