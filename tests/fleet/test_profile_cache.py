"""The persistent profile store: round-trip, keys, rejection, management."""

import json

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.fleet.profile_cache import (
    PROFILE_CACHE_VERSION,
    ProfileCache,
    default_profile_cache_dir,
    describe,
    key_for_tenant,
    profile_cache_key,
)
from repro.fleet.profiles import ProfileStore
from repro.sim.run import simulate
from repro.sim.serialize import trace_to_dict
from tests.fleet.conftest import tiny_tenant

SPEC = haswell_i7_4770k()


@pytest.fixture(scope="module")
def tenant_and_trace():
    tenant = tiny_tenant("cache-t", seed=3)
    trace = simulate(
        tenant.program(),
        tenant.base_freq_ghz,
        spec=SPEC,
        quantum_ns=tenant.quantum_ns,
    ).trace
    return tenant, trace


def test_roundtrip_is_exact(tmp_path, tenant_and_trace):
    tenant, trace = tenant_and_trace
    cache = ProfileCache(tmp_path)
    key = key_for_tenant(tenant, SPEC)
    assert cache.get(key) is None
    cache.put(key, trace)
    loaded = cache.get(key)
    assert loaded is not None
    assert trace_to_dict(loaded) == trace_to_dict(trace)
    assert len(cache) == 1


def test_cold_process_reads_what_another_wrote(tmp_path, tenant_and_trace):
    tenant, trace = tenant_and_trace
    key = key_for_tenant(tenant, SPEC)
    ProfileCache(tmp_path).put(key, trace)
    fresh = ProfileCache(tmp_path)  # empty memory tier, disk only
    loaded = fresh.get(key)
    assert loaded is not None
    assert trace_to_dict(loaded) == trace_to_dict(trace)


def test_key_covers_every_shape_axis():
    tenant = tiny_tenant("k", seed=1, base=3.0)
    base = key_for_tenant(tenant, SPEC)
    # Same shape, different tenant name/SLA -> same profile entry.
    assert key_for_tenant(tiny_tenant("other", seed=1, base=3.0), SPEC) == base
    assert key_for_tenant(tiny_tenant("k", seed=1, base=4.0), SPEC) != base
    assert key_for_tenant(tiny_tenant("k", seed=1, quantum=4.0e4), SPEC) != base
    assert key_for_tenant(tiny_tenant("k", seed=2), SPEC) != base
    assert (
        profile_cache_key(
            tenant.workload, tenant.base_freq_ghz, tenant.quantum_ns,
            "M+CRIT", SPEC,
        )
        != base
    )


def test_corrupt_entry_is_a_miss_and_dropped(tmp_path, tenant_and_trace):
    tenant, trace = tenant_and_trace
    key = key_for_tenant(tenant, SPEC)
    writer = ProfileCache(tmp_path)
    writer.put(key, trace)
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("profile-")]
    path.write_text(path.read_text()[:100])  # truncate the envelope

    fresh = ProfileCache(tmp_path)
    assert fresh.get(key) is None
    assert not path.exists()  # dropped best-effort


def test_stale_version_is_a_miss(tmp_path, tenant_and_trace):
    tenant, trace = tenant_and_trace
    key = key_for_tenant(tenant, SPEC)
    cache = ProfileCache(tmp_path)
    cache.put(key, trace)
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("profile-")]
    envelope = json.loads(path.read_text())
    inner = json.loads(envelope["value"])
    inner["cache_version"] = PROFILE_CACHE_VERSION + 1
    envelope["value"] = json.dumps(inner)
    path.write_text(json.dumps(envelope))

    fresh = ProfileCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.rejected == 1


def test_clear_and_stats(tmp_path, tenant_and_trace):
    tenant, trace = tenant_and_trace
    cache = ProfileCache(tmp_path)
    cache.put(key_for_tenant(tenant, SPEC), trace)
    disk = cache.disk_stats()
    assert disk["entries"] == 1
    assert disk["size_bytes"] > 0
    text = describe(cache)
    assert str(tmp_path) in text
    assert "entries:       1" in text
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get(key_for_tenant(tenant, SPEC)) is None


def test_default_dir_honours_cache_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "root"))
    assert default_profile_cache_dir() == tmp_path / "root" / "fleet-profiles"


def test_cold_build_fills_the_shared_cache(tmp_path):
    tenants = [
        tiny_tenant("p0", seed=1, base=3.0),
        tiny_tenant("p1", seed=1, base=4.0),
        tiny_tenant("p2", seed=2, base=3.0),
        tiny_tenant("p3", seed=2, base=3.0, quantum=4.0e4),
        tiny_tenant("p0-again", seed=1, base=3.0),
    ]
    cold_store = ProfileStore(SPEC, cache=ProfileCache(tmp_path))
    cold = cold_store.build(tenants)
    assert cold["profiles_built"] == 4
    assert len(ProfileCache(tmp_path)) == 4  # one entry per shape

    warm_store = ProfileStore(SPEC, cache=ProfileCache(tmp_path))
    warm = warm_store.build(tenants)
    assert warm["cache_hits"] == 4
    assert warm["profiles_built"] == 0
    for key, profile in cold_store.profiles.items():
        assert trace_to_dict(
            warm_store.profiles[key].trace
        ) == trace_to_dict(profile.trace)
