"""The policy × cap grid driver: payload, determinism, cold/warm parity."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.fleet.grid import (
    DEFAULT_CAPS_W,
    GRID_FORMAT_VERSION,
    GRID_KIND,
    GridConfig,
    grid_bytes,
    render_grid,
    run_grid,
)
from repro.fleet.policy import policy_names
from repro.fleet.profile_cache import ProfileCache

CONFIG = GridConfig(
    tenants=6,
    seed=11,
    policies=("static-max", "tail-allocator"),
    caps_w=(120.0, 400.0),
)


@pytest.fixture(scope="module")
def payload():
    return run_grid(CONFIG)


def test_validation():
    with pytest.raises(ConfigError):
        GridConfig(caps_w=())
    with pytest.raises(ConfigError):
        GridConfig(caps_w=(100.0, -1.0))


def test_default_policies_are_all_registered():
    assert GridConfig().effective_policies() == tuple(policy_names())
    assert GridConfig().caps_w == DEFAULT_CAPS_W


def test_cell_order_is_policy_major_ascending_caps():
    assert CONFIG.cells() == [
        ("static-max", 120.0),
        ("static-max", 400.0),
        ("tail-allocator", 120.0),
        ("tail-allocator", 400.0),
    ]


def test_payload_shape(payload):
    assert payload["kind"] == GRID_KIND
    assert payload["format_version"] == GRID_FORMAT_VERSION
    assert payload["config"]["tenants"] == 6
    assert len(payload["cells"]) == 4
    for cell, (policy, cap) in zip(payload["cells"], CONFIG.cells()):
        assert cell["policy"] == policy
        assert cell["power_cap_w"] == cap
        assert cell["energy_j"] > 0.0
        assert cell["oracle_energy_j"] > 0.0
    assert set(payload["diagnostics"]) == {"profiles", "cache_hits"}


def test_capped_policy_respects_tighter_cap(payload):
    by_cell = {
        (cell["policy"], cell["power_cap_w"]): cell
        for cell in payload["cells"]
    }
    tight = by_cell[("tail-allocator", 120.0)]
    assert tight["cap_violations"] == 0
    assert tight["peak_power_w"] <= 120.0 * (1 + 1e-9)


def test_grid_bytes_is_deterministic_and_diagnostics_free(payload):
    blob = grid_bytes(payload)
    assert blob == grid_bytes(run_grid(CONFIG))
    parsed = json.loads(blob)
    assert "diagnostics" not in parsed
    assert parsed["cells"] == payload["cells"]


def test_warm_grid_matches_cold_bytes(payload, tmp_path):
    cold = run_grid(CONFIG, cache=ProfileCache(tmp_path / "profiles"))
    assert grid_bytes(cold) == grid_bytes(payload)
    assert cold["diagnostics"]["cache_hits"] == 0

    # A warm repeat reuses every profile from the store.
    warm = run_grid(CONFIG, cache=ProfileCache(tmp_path / "profiles"))
    assert grid_bytes(warm) == grid_bytes(payload)
    assert warm["diagnostics"]["cache_hits"] == warm["diagnostics"]["profiles"]


def test_render_grid_mentions_every_cell(payload):
    text = render_grid(payload)
    assert "Fleet grid — 6 tenants" in text
    assert text.count("static-max") == 2
    assert text.count("tail-allocator") == 2
