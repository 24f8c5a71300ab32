"""The shared prediction cache: keys, fragments, and the raw-line memo."""

import dataclasses
import json

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.serve.predcache import (
    PredictionCache,
    RawLineMemo,
    split_raw_line,
)


@pytest.fixture()
def cache():
    return PredictionCache(haswell_i7_4770k())


def _frame(**overrides):
    frame = {
        "v": 1,
        "kind": "predict",
        "predictor": "DEP+BURST",
        "base_freq_ghz": 2.0,
        "target_freqs_ghz": [1.0, 3.0],
        "epochs": [{"kind": "global", "t0": 0.0, "t1": 1.0}],
        "id": 7,
    }
    frame.update(overrides)
    return frame


# ----------------------------------------------------------------------
# Semantic keys
# ----------------------------------------------------------------------


class TestKeyFor:
    def test_equal_payloads_key_equal_regardless_of_id(self, cache):
        assert cache.key_for(_frame(id=1)) == cache.key_for(_frame(id=999))

    def test_any_payload_difference_changes_the_key(self, cache):
        base = cache.key_for(_frame())
        assert cache.key_for(_frame(base_freq_ghz=2.5)) != base
        assert cache.key_for(_frame(predictor="DEP")) != base
        assert cache.key_for(_frame(target_freqs_ghz=[1.0])) != base
        # 1 vs 1.0 are value-equal but not wire-equal: conservative miss.
        assert cache.key_for(_frame(base_freq_ghz=2)) != base

    def test_machine_spec_participates_in_the_key(self):
        frame = _frame()
        haswell = PredictionCache(haswell_i7_4770k())
        wider = PredictionCache(
            dataclasses.replace(haswell_i7_4770k(), n_cores=8)
        )
        assert haswell.key_for(frame) != wider.key_for(frame)

    def test_kernel_version_participates_in_the_key(self, cache, monkeypatch):
        """A kernel revision must never replay another revision's result."""
        import repro.core.sweep as sweep

        monkeypatch.setattr(sweep, "KERNEL_VERSION", "test-bumped")
        bumped = PredictionCache(haswell_i7_4770k())
        assert bumped.key_for(_frame()) != cache.key_for(_frame())

    def test_non_json_payload_is_uncacheable(self, cache):
        assert cache.key_for(_frame(epochs=object())) is None


# ----------------------------------------------------------------------
# Fragment store
# ----------------------------------------------------------------------


class TestFragments:
    def test_record_then_lookup_returns_the_exact_fragment(self, cache):
        key = cache.key_for(_frame())
        result = {"predicted_ns": [1.0, 2.5], "base_freq_ghz": 2.0}
        fragment = cache.record(key, result)
        assert fragment == json.dumps(result, separators=(",", ":"))
        assert cache.lookup(key) == fragment

    def test_lookup_rejects_fragments_that_are_not_object_text(self, cache):
        cache.store.put("bad", "[1,2,3]")
        assert cache.lookup("bad") is None
        cache.store.put("worse", "{truncat")
        assert cache.lookup("worse") is None

    def test_changed_digit_in_file_tier_fragment_is_a_miss(self, tmp_path):
        cache = PredictionCache(
            haswell_i7_4770k(), shared_dir=str(tmp_path), max_memory_entries=0
        )
        key = cache.key_for(_frame())
        cache.record(key, {"predicted_ns": [123456.0]})
        (path,) = tmp_path.glob("predict-*.json")
        raw = path.read_text()
        assert raw.count("123456.0") == 1
        path.write_text(raw.replace("123456.0", "923456.0"))
        assert cache.lookup(key) is None

    def test_file_tier_is_shared_across_cache_instances(self, tmp_path):
        spec = haswell_i7_4770k()
        worker_a = PredictionCache(spec, shared_dir=str(tmp_path))
        worker_b = PredictionCache(spec, shared_dir=str(tmp_path))
        key = worker_a.key_for(_frame())
        fragment = worker_a.record(key, {"predicted_ns": [4.2]})
        # The other worker never computed it, but hits via the file tier.
        assert worker_b.lookup(key) == fragment

    def test_needs_at_least_one_tier(self):
        with pytest.raises(ValueError):
            PredictionCache(haswell_i7_4770k(), max_memory_entries=0)

    def test_file_only_cache_has_no_raw_memo(self, tmp_path):
        cache = PredictionCache(
            haswell_i7_4770k(), shared_dir=str(tmp_path), max_memory_entries=0
        )
        assert cache.raw is None
        assert "raw_memo" not in cache.stats()

    def test_stats_shape(self, cache):
        key = cache.key_for(_frame())
        cache.record(key, {"predicted_ns": []})
        cache.lookup(key)
        cache.lookup("absent")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert isinstance(stats["tiers"], list)
        assert stats["raw_memo"] == {"entries": 0, "hits": 0, "misses": 0}


# ----------------------------------------------------------------------
# split_raw_line: the byte-level id splitter
# ----------------------------------------------------------------------


class TestSplitRawLine:
    def test_splits_a_trailing_integer_id(self):
        line = b'{"v":1,"kind":"predict","base_freq_ghz":2.0,"id":123}\n'
        assert split_raw_line(line) == (
            b'{"v":1,"kind":"predict","base_freq_ghz":2.0}',
            b"123",
        )

    def test_equal_prefixes_mean_equal_requests(self):
        a = split_raw_line(b'{"v":1,"kind":"predict","x":1,"id":1}\n')
        b = split_raw_line(b'{"v":1,"kind":"predict","x":1,"id":982}\n')
        assert a is not None and b is not None
        assert a[0] == b[0]
        assert (a[1], b[1]) == (b"1", b"982")

    @pytest.mark.parametrize(
        "line",
        [
            b'{"v":1,"kind":"health"}\n',  # no id at all
            b'{"id":5,"v":1,"kind":"health"}\n',  # id not last
            b'{"v":1,"id":5,"kind":"health"}\n',  # id in the middle
            b'{"v":1,"id":-5}\n',  # negative
            b'{"v":1,"id":5.0}\n',  # float
            b'{"v":1,"id":"5"}\n',  # string
            b'{"v":1,"id":05}\n',  # leading zero (invalid JSON anyway)
            b'{"v":1,"id": 5}\n',  # whitespace after the colon
            b'{"v":1,"id":5}',  # no newline terminator
            b'{"v":1,"nested":{"id":5}}\n',  # nested object's id
        ],
    )
    def test_anything_else_declines(self, line):
        assert split_raw_line(line) is None

    def test_string_value_containing_the_token_is_safe(self):
        """The token inside a *string* must not be mistaken for the id.

        rfind latches onto the rightmost occurrence; if that occurrence
        is inside a string value the remaining bytes cannot look like
        ``<digits>}\\n`` (a string value has a closing quote), so the
        splitter declines rather than mis-splitting.
        """
        line = b'{"v":1,"note":",\\"id\\":9","id":4}\n'
        split = split_raw_line(line)
        assert split is not None
        assert split[1] == b"4"
        # And when such a frame has no trailing id, it declines.
        assert split_raw_line(b'{"v":1,"note":",\\"id\\":9"}\n') is None


# ----------------------------------------------------------------------
# RawLineMemo
# ----------------------------------------------------------------------


class TestRawLineMemo:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RawLineMemo(0)

    def test_hit_miss_counters(self):
        memo = RawLineMemo(4)
        assert memo.get(b"prefix") is None
        memo.put(b"prefix", b'{"predicted_ns":[1.0]}')
        assert memo.get(b"prefix") == b'{"predicted_ns":[1.0]}'
        assert memo.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_lru_eviction_order(self):
        memo = RawLineMemo(2)
        memo.put(b"a", b"1")
        memo.put(b"b", b"2")
        assert memo.get(b"a") == b"1"  # touch a -> b becomes LRU
        memo.put(b"c", b"3")
        assert memo.get(b"b") is None
        assert memo.get(b"a") == b"1"
        assert len(memo) == 2
