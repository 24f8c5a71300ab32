"""The fleet bench payload: shape, identity gate, validation."""

import pytest

from repro.common.errors import ReproError
from repro.fleet.fleet_bench import fleet_bench


def test_reps_must_be_positive():
    with pytest.raises(ReproError):
        fleet_bench(tenants=2, seed=1, reps=0)


def test_payload_shape_and_identity_gate(tmp_path):
    payload = fleet_bench(tenants=5, seed=3, reps=1, cache_root=str(tmp_path))
    assert payload["tenants"] == 5
    assert "jobs" not in payload
    assert payload["identical"] is True
    assert payload["profiles"] >= 1
    assert payload["groups"] >= 1
    assert payload["cache_entries"] == payload["profiles"]
    for phase in (
        "naive_build_s",
        "serial_build_s",
        "warm_build_s",
        "engine_s",
    ):
        stats = payload[phase]
        assert set(stats) == {"min", "median", "mean"}
        assert stats["min"] > 0.0
    for metric in (
        "cold_speedup",
        "warm_speedup",
        "cold_run_s",
        "warm_run_s",
        "tenants_per_s",
    ):
        assert payload[metric] > 0.0
    # The warm rebuild skips simulation entirely: it must beat the
    # serial cold build even at this miniature scale.
    assert payload["warm_speedup"] > 1.0
