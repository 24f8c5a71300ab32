"""Serve-backed fleet mode: group dedup and live wire parity."""

import pytest

from repro.common.errors import ConfigError
from repro.fleet.serve_mode import decision_groups, validate_decision_streams
from repro.serve.sessions import decision_log_bytes
from tests.util import requires_af_unix


def test_decision_groups_dedup_profile_and_manager(tiny_store, tiny_fleet):
    groups = decision_groups(tiny_store, tiny_fleet)
    # 4 distinct profiles; t0a/t0b share one but differ in threshold,
    # so they form separate decision-stream groups.
    assert len(groups) == 5
    keys = [key for key, _, _ in groups]
    assert keys == sorted(keys)
    # Same fleet twice: still the same groups.
    assert len(decision_groups(tiny_store, tiny_fleet * 2)) == 5


def test_decision_stream_bytes_is_deterministic(tiny_store, tiny_fleet):
    _, profile, manager = decision_groups(tiny_store, tiny_fleet)[0]
    decisions = profile.governor_plan(manager).decisions
    assert decision_log_bytes(decisions) == decision_log_bytes(decisions)


def test_validation_rejects_zero_workers(tiny_store, tiny_fleet):
    with pytest.raises(ConfigError):
        validate_decision_streams(tiny_store, tiny_fleet, workers=0)


@requires_af_unix
def test_pool_streams_match_in_process_byte_for_byte(tiny_store, tiny_fleet):
    block = validate_decision_streams(tiny_store, tiny_fleet, workers=2)
    assert block["status"] == "byte-identical"
    assert block["workers"] == 2
    assert block["groups"] == 5
    assert block["decisions"] >= 0
