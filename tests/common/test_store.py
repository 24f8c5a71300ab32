"""The content-addressed store layer: hashing, tiers, and corruption."""

import dataclasses
import enum
import json
from pathlib import Path

import pytest

from repro.common.store import (
    FileStore,
    MemoryLRU,
    TieredStore,
    atomic_write_text,
    canonical,
    stable_hash,
    unlink_quiet,
)


# ----------------------------------------------------------------------
# canonical / stable_hash
# ----------------------------------------------------------------------


class _Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class _Point:
    x: int
    y: int


class TestCanonical:
    def test_dict_key_order_does_not_matter(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_different_values_hash_differently(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
        assert stable_hash(1) != stable_hash(1.0)  # int vs float text

    def test_dataclasses_enums_sets_and_paths_canonicalize(self):
        obj = {
            "point": _Point(1, 2),
            "color": _Color.RED,
            "tags": {"b", "a"},
            "path": Path("/tmp/x"),
        }
        text = json.dumps(canonical(obj), sort_keys=True)
        assert '"x": 1' in text
        assert '"red"' in text
        assert '["a", "b"]' in text  # sets are sorted
        # And the whole thing hashes stably.
        assert stable_hash(obj) == stable_hash(obj)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical(object())


# ----------------------------------------------------------------------
# atomic_write_text
# ----------------------------------------------------------------------


def test_atomic_write_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.json"
    atomic_write_text(target, '{"ok": true}')
    assert target.read_text() == '{"ok": true}'
    # No stray temp files next to the target.
    assert sorted(p.name for p in target.parent.iterdir()) == ["file.json"]


def test_unlink_quiet_tolerates_missing(tmp_path):
    unlink_quiet(tmp_path / "never-existed")


# ----------------------------------------------------------------------
# MemoryLRU
# ----------------------------------------------------------------------


class TestMemoryLRU:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            MemoryLRU(max_entries=0)

    def test_get_put_and_counters(self):
        lru = MemoryLRU(max_entries=4)
        assert lru.get("k") is None
        assert lru.stats.misses == 1
        lru.put("k", "v")
        assert lru.get("k") == "v"
        assert lru.stats.hits == 1
        assert lru.stats.stores == 1

    def test_eviction_is_least_recently_used(self):
        lru = MemoryLRU(max_entries=2)
        lru.put("a", "1")
        lru.put("b", "2")
        assert lru.get("a") == "1"  # touch a -> b is now LRU
        lru.put("c", "3")
        assert lru.get("b") is None
        assert lru.get("a") == "1"
        assert lru.get("c") == "3"
        assert lru.stats.evictions == 1
        assert len(lru) == 2


# ----------------------------------------------------------------------
# FileStore
# ----------------------------------------------------------------------


class TestFileStore:
    def test_round_trip_and_shared_directory(self, tmp_path):
        writer = FileStore(tmp_path, prefix="predict")
        reader = FileStore(tmp_path, prefix="predict")  # second process
        writer.put("deadbeef" * 8, '{"predicted_ns": [1.0]}')
        assert reader.get("deadbeef" * 8) == '{"predicted_ns": [1.0]}'
        assert len(reader) == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = FileStore(tmp_path)
        assert store.get("nope") is None
        assert store.stats.misses == 1
        assert store.stats.errors == 0

    def test_corrupt_file_is_dropped_and_counted(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("key1", "value")
        store.path_for("key1").write_text("{truncated garbage")
        assert store.get("key1") is None
        assert store.stats.errors == 1
        assert not store.path_for("key1").exists()  # offender removed

    def test_envelope_key_mismatch_is_rejected(self, tmp_path):
        """A filename collision must not replay another key's value."""
        store = FileStore(tmp_path)
        store.put("key1", "value-of-key1")
        # Simulate a hash-prefix collision: the file exists but its
        # envelope names a different full key.
        colliding = FileStore(tmp_path)
        colliding.path_for("key1").write_text(
            json.dumps({"key": "other-key", "value": "wrong"})
        )
        assert store.get("key1") is None
        assert store.stats.errors == 1

    def test_changed_digit_in_value_is_rejected(self, tmp_path):
        """Damage that leaves the JSON valid must still read as a miss."""
        store = FileStore(tmp_path)
        store.put("key1", '{"total_ns":123456.0}')
        path = store.path_for("key1")
        raw = path.read_text()
        assert raw.count("123456.0") == 1
        path.write_text(raw.replace("123456.0", "923456.0"))
        assert store.get("key1") is None
        assert store.stats.errors == 1
        assert store.stats.misses == 1
        assert not path.exists()


# ----------------------------------------------------------------------
# TieredStore
# ----------------------------------------------------------------------


class TestTieredStore:
    def test_put_writes_all_tiers_and_get_prefers_the_first(self, tmp_path):
        memory = MemoryLRU(max_entries=8)
        disk = FileStore(tmp_path)
        store = TieredStore([memory, disk])
        store.put("k", "v")
        assert memory.get("k") == "v"
        assert disk.get("k") == "v"
        assert store.get("k") == "v"
        assert store.stats.hits == 1

    def test_lower_tier_hit_promotes_upward(self, tmp_path):
        memory = MemoryLRU(max_entries=8)
        disk = FileStore(tmp_path)
        # Another worker stored it: only on disk.
        FileStore(tmp_path).put("shared", "payload")
        store = TieredStore([memory, disk])
        assert store.get("shared") == "payload"
        # Promoted: the next get is a pure memory hit.
        assert memory.get("shared") == "payload"

    def test_miss_counts_once_overall(self, tmp_path):
        store = TieredStore([MemoryLRU(max_entries=8), FileStore(tmp_path)])
        assert store.get("absent") is None
        assert store.stats.misses == 1
        assert len(store.tier_stats()) == 2
