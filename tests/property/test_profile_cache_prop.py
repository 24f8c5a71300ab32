"""Property tests: the fleet profile-store envelope.

A stored profile must replay bit-exactly — rebuilding the profile from
a cache hit yields the same predictions as the cold simulation — and a
defective entry (truncation, byte flips, a stale envelope version) must
read as a miss, never as data.
"""

import hashlib
import json
import tempfile

from hypothesis import given, settings, strategies as st

from repro.arch.specs import haswell_i7_4770k
from repro.core.predictors import make_predictor
from repro.fleet.profile_cache import (
    PROFILE_CACHE_VERSION,
    ProfileCache,
    profile_cache_key,
)
from repro.sim.run import simulate
from repro.sim.serialize import trace_to_dict
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

SPEC = haswell_i7_4770k()


@st.composite
def small_configs(draw):
    return SyntheticWorkloadConfig(
        name="cache-prop",
        seed=draw(st.integers(min_value=0, max_value=30)),
        n_threads=draw(st.integers(min_value=1, max_value=3)),
        n_units=draw(st.integers(min_value=8, max_value=16)),
        unit_insns=15_000,
        clusters_per_kinsn=draw(st.floats(min_value=0.0, max_value=1.5)),
        alloc_bytes_per_unit=draw(st.sampled_from([0, 262_144])),
        alloc_every=2,
        cs_probability=draw(st.floats(min_value=0.0, max_value=0.5)),
        nursery_mb=2,
        heap_mb=32,
    )


def _key(config, freq):
    return profile_cache_key(config, freq, 5.0e6, "DEP+BURST", SPEC)


@given(config=small_configs(), freq=st.sampled_from([1.0, 2.5, 4.0]))
@settings(max_examples=8, deadline=None)
def test_envelope_roundtrip_is_bit_exact(config, freq):
    trace = simulate(
        build_synthetic_program(config), freq, spec=SPEC, quantum_ns=5.0e6
    ).trace
    with tempfile.TemporaryDirectory() as tmp:
        cache = ProfileCache(tmp)
        cache.put(_key(config, freq), trace)
        warm = cache.get(_key(config, freq))
        # And through a cold process image: disk tier only.
        cold = ProfileCache(tmp).get(_key(config, freq))
    for loaded in (warm, cold):
        assert loaded is not None
        assert trace_to_dict(loaded) == trace_to_dict(trace)
        predictor = make_predictor("DEP+BURST")
        for target in (1.5, 3.5):
            assert predictor.predict_total_ns(
                loaded, target
            ) == predictor.predict_total_ns(trace, target)


@given(
    config=small_configs(),
    cut=st.integers(min_value=0, max_value=400),
    flip=st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=8, deadline=None)
def test_defective_entries_are_misses_not_data(config, cut, flip):
    trace = simulate(
        build_synthetic_program(config), 2.0, spec=SPEC, quantum_ns=5.0e6
    ).trace
    key = _key(config, 2.0)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ProfileCache(tmp)
        cache.put(key, trace)
        (path,) = [
            p for p in cache.root.iterdir() if p.name.startswith("profile-")
        ]
        raw = path.read_bytes()
        position = flip % len(raw)
        mangled = (
            raw[: cut % len(raw)]
            if cut % 2
            else raw[:position] + bytes([raw[position] ^ 0xFF]) + raw[position + 1:]
        )
        path.write_bytes(mangled)
        assert ProfileCache(tmp).get(key) is None


@given(config=small_configs(), version_bump=st.integers(min_value=1, max_value=5))
@settings(max_examples=4, deadline=None)
def test_stale_envelope_version_is_rejected(config, version_bump):
    trace = simulate(
        build_synthetic_program(config), 2.0, spec=SPEC, quantum_ns=5.0e6
    ).trace
    key = _key(config, 2.0)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ProfileCache(tmp)
        cache.put(key, trace)
        (path,) = [
            p for p in cache.root.iterdir() if p.name.startswith("profile-")
        ]
        outer = json.loads(path.read_text())
        inner = json.loads(outer["value"])
        inner["cache_version"] = PROFILE_CACHE_VERSION + version_bump
        outer["value"] = json.dumps(inner, separators=(",", ":"))
        # Re-seal the file tier's checksum so the forgery reaches the
        # envelope's version check.
        outer["sha256"] = hashlib.sha256(
            outer["value"].encode("utf-8")
        ).hexdigest()
        path.write_text(json.dumps(outer, separators=(",", ":")))
        fresh = ProfileCache(tmp)
        assert fresh.get(key) is None
        assert fresh.rejected == 1
        # The offender was evicted; the next read is a clean miss.
        assert fresh.get(key) is None
        assert fresh.rejected == 1
