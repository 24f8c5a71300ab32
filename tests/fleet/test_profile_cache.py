"""The persistent profile store: round-trip, keys, rejection, management."""

import base64
import dataclasses
import hashlib
import json

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.common.store import FileStore, stable_hash
from repro.core.predictors import predictor_names
from repro.core.sweep import KERNEL_VERSION
from repro.fleet.corpus import builtin_templates
from repro.fleet.profile_cache import (
    PROFILE_CACHE_VERSION,
    PROFILE_PREFIX,
    ProfileCache,
    default_profile_cache_dir,
    describe,
    key_for_tenant,
    profile_cache_key,
)
from repro.fleet.profiles import ProfileStore
from repro.sim.run import simulate
from repro.sim.serialize import FORMAT_VERSION, trace_to_dict
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


def one_shot_key(workload, base, quantum, predictor, spec):
    """The profile key as defined: one ``stable_hash`` of the whole payload."""
    return stable_hash(
        {
            "kind": "repro-fleet-profile",
            "cache_version": PROFILE_CACHE_VERSION,
            "trace_format": FORMAT_VERSION,
            "kernel_version": KERNEL_VERSION,
            "workload": dataclasses.asdict(workload),
            "base_freq_ghz": round(base, 6),
            "quantum_ns": quantum,
            "predictor": predictor,
            "spec": spec,
        }
    )


def test_memoized_keys_equal_the_one_shot_hash():
    """Every builtin template x base x quantum x predictor, on two machine
    specs and with an int base: the key built from the memoized workload
    and spec text is the one-shot ``stable_hash`` byte for byte."""
    slow_dram = dataclasses.replace(
        SPEC, dram=dataclasses.replace(SPEC.dram, row_hit_ns=40.0)
    )
    keys, checked = set(), 0
    for spec in (SPEC, slow_dram):
        for template in builtin_templates():
            for base in template.base_freqs + (4,):
                for quantum in template.quanta:
                    for predictor in predictor_names():
                        key = profile_cache_key(
                            template.workload, base, quantum, predictor, spec
                        )
                        assert key == one_shot_key(
                            template.workload, base, quantum, predictor, spec
                        )
                        keys.add(key)
                        checked += 1
    # Every shape has its own key; bases 4 and 4.0 differ in JSON text.
    assert len(keys) == checked >= 2 * 6 * 4 * 2 * 2


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
    # Re-seal the file tier's checksum so the edit reaches the version check.
    envelope["sha256"] = hashlib.sha256(
        envelope["value"].encode("utf-8")
    ).hexdigest()
    path.write_text(json.dumps(envelope))

    fresh = ProfileCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.rejected == 1


def test_checksummed_but_undecodable_trace_is_rejected_and_rebuilt(tmp_path):
    tenant = tiny_tenant("undecodable", seed=4)
    key = key_for_tenant(tenant, SPEC)
    ProfileStore(SPEC, cache=ProfileCache(tmp_path)).build([tenant])
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("profile-")]
    inner = json.loads(json.loads(path.read_text())["value"])
    column = base64.b64decode(inner["trace"]["events"]["snap_tid"])
    inner["trace"]["events"]["snap_tid"] = base64.b64encode(column[:-4]).decode()
    # A correct checksum over the damaged value: only the codec can tell.
    FileStore(tmp_path, prefix=PROFILE_PREFIX).put(key, json.dumps(inner))

    fresh = ProfileCache(tmp_path)
    rebuild = ProfileStore(SPEC, cache=fresh).build([tenant])
    assert (rebuild["cache_hits"], rebuild["profiles_built"]) == (0, 1)
    assert fresh.rejected == 1
    assert fresh.stats()["disk"]["errors"] == 0
    assert "1 rejected" in describe(fresh)
    assert ProfileCache(tmp_path).get(key) is not None  # republished intact


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
