"""Deterministic sharding: every router must compute the same placement."""

import hashlib

import pytest

from repro.serve.sharding import (
    AFFINITY_SEP,
    shard_for_key,
    tag_session_id,
    worker_socket_path,
    worker_socket_paths,
)


# ----------------------------------------------------------------------
# shard_for_key
# ----------------------------------------------------------------------


class TestShardForKey:
    def test_is_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for key in ("", "lusearch", "tenant-42", "キー"):
                shard = shard_for_key(key, n)
                assert shard == shard_for_key(key, n)
                assert 0 <= shard < n

    def test_matches_the_documented_sha256_construction(self):
        """Clients in other languages must be able to reimplement this."""
        digest = hashlib.sha256(b"session-key").digest()
        expected = int.from_bytes(digest[:8], "big") % 5
        assert shard_for_key("session-key", 5) == expected

    def test_spreads_keys_across_workers(self):
        shards = {shard_for_key(f"run-{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            shard_for_key("k", 0)


# ----------------------------------------------------------------------
# Session affinity tags
# ----------------------------------------------------------------------


class TestSessionAffinity:
    def test_tag_round_trips(self):
        for worker_id in range(4):
            tagged = tag_session_id("g7", worker_id)
            assert tagged == f"g7{AFFINITY_SEP}{worker_id}"


# ----------------------------------------------------------------------
# Endpoint naming
# ----------------------------------------------------------------------


class TestEndpoints:
    def test_worker_socket_paths_derive_from_the_public_path(self):
        assert worker_socket_path("/run/serve.sock", 2) == "/run/serve.sock.w2"
        assert worker_socket_paths("/run/serve.sock", 2) == [
            "/run/serve.sock.w0",
            "/run/serve.sock.w1",
        ]
