"""The shared prediction cache: byte keys, fragments, and the id splitter."""

import dataclasses
import json

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.common.store import FileStore
from repro.serve import protocol
from repro.serve.predcache import PredictionCache, split_raw_line


@pytest.fixture()
def cache():
    return PredictionCache(haswell_i7_4770k())


def _line(request_id=7, **overrides):
    """One predict frame's wire bytes in the client layout (id last)."""
    frame = {
        "v": protocol.PROTOCOL_VERSION,
        "kind": "predict",
        "predictor": "DEP+BURST",
        "base_freq_ghz": 2.0,
        "target_freqs_ghz": [1.0, 3.0],
        "epochs": [{"kind": "global", "t0": 0.0, "t1": 1.0}],
    }
    frame.update(overrides)
    frame["id"] = request_id
    return protocol.encode_frame(frame)


def _key(cache, line):
    split = cache.split_key(line)
    assert split is not None
    return split[0]


# ----------------------------------------------------------------------
# Byte keys
# ----------------------------------------------------------------------


class TestKeyFor:
    def test_equal_payloads_key_equal_regardless_of_id(self, cache):
        one, many = cache.split_key(_line(1)), cache.split_key(_line(999))
        assert one[0] == many[0]
        assert (one[1], many[1]) == (b"1", b"999")

    def test_any_payload_difference_changes_the_key(self, cache):
        base = _key(cache, _line())
        assert _key(cache, _line(base_freq_ghz=2.5)) != base
        assert _key(cache, _line(predictor="DEP")) != base
        assert _key(cache, _line(target_freqs_ghz=[1.0])) != base
        # 1 vs 1.0 are value-equal but not byte-equal: conservative miss.
        assert _key(cache, _line(base_freq_ghz=2)) != base

    def test_field_order_and_whitespace_change_the_key(self, cache):
        line = _line()
        base = _key(cache, line)
        reordered = line.replace(
            b'"base_freq_ghz":2.0,"target_freqs_ghz":[1.0,3.0]',
            b'"target_freqs_ghz":[1.0,3.0],"base_freq_ghz":2.0',
        )
        spaced = line.replace(b'"base_freq_ghz":2.0', b'"base_freq_ghz": 2.0')
        assert reordered != line and spaced != line
        assert json.loads(reordered) == json.loads(line) == json.loads(spaced)
        assert _key(cache, reordered) != base
        assert _key(cache, spaced) != base

    def test_machine_spec_participates_in_the_key(self):
        line = _line()
        haswell = PredictionCache(haswell_i7_4770k())
        wider = PredictionCache(
            dataclasses.replace(haswell_i7_4770k(), n_cores=8)
        )
        assert _key(haswell, line) != _key(wider, line)

    def test_kernel_version_participates_in_the_key(self, cache, monkeypatch):
        """A kernel revision must never replay another revision's result."""
        import repro.core.sweep as sweep

        monkeypatch.setattr(sweep, "KERNEL_VERSION", "test-bumped")
        bumped = PredictionCache(haswell_i7_4770k())
        assert _key(bumped, _line()) != _key(cache, _line())

    def test_schema_participates_in_the_key(self, cache, monkeypatch):
        import repro.serve.predcache as predcache

        monkeypatch.setattr(predcache, "PREDICT_CACHE_SCHEMA", 99)
        bumped = PredictionCache(haswell_i7_4770k())
        assert _key(bumped, _line()) != _key(cache, _line())

    def test_frame_without_trailing_id_is_uncacheable(self, cache):
        line = _line()
        id_first = b'{"id":7,' + line[1:].replace(b',"id":7}', b"}")
        assert json.loads(id_first) == json.loads(line)
        assert cache.split_key(id_first) is None
        assert cache.split_key(_line(request_id="7")) is None

    @pytest.mark.parametrize(
        "line",
        [
            b'{"v":1,"kind":"health","id":1}\n',
            b'{"v":1,"kind":"stats","id":2}\n',
            b'{"v":1,"kind":"govern","op":"step","session":"s1","id":3}\n',
            # A predict in another member order is answered uncached.
            b'{"kind":"predict","v":1,"base_freq_ghz":1.0,"id":4}\n',
        ],
    )
    def test_only_client_layout_predicts_are_keyed(self, cache, line):
        assert cache.split_key(line) is None


# ----------------------------------------------------------------------
# Fragment store
# ----------------------------------------------------------------------


class TestFragments:
    def test_record_then_lookup_returns_the_exact_fragment(self, cache):
        key = _key(cache, _line())
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
        key = _key(cache, _line())
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
        key = _key(worker_a, _line())
        fragment = worker_a.record(key, {"predicted_ns": [4.2]})
        # The other worker never computed it, but hits via the file tier.
        assert worker_b.lookup(key) == fragment

    def test_needs_at_least_one_tier(self):
        with pytest.raises(ValueError):
            PredictionCache(haswell_i7_4770k(), max_memory_entries=0)

    def test_file_only_cache_keeps_nothing_in_memory(self, tmp_path):
        cache = PredictionCache(
            haswell_i7_4770k(), shared_dir=str(tmp_path), max_memory_entries=0
        )
        key = _key(cache, _line())
        cache.record(key, {"predicted_ns": [1.0]})
        (tier,) = cache.store.tiers
        assert isinstance(tier, FileStore)
        assert len(list(tmp_path.glob("predict-*.json"))) == 1

    def test_stats_shape(self, cache):
        key = _key(cache, _line())
        cache.record(key, {"predicted_ns": []})
        cache.lookup(key)
        cache.lookup("absent")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert isinstance(stats["tiers"], list)
        assert "raw_memo" not in stats


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
