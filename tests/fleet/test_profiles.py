"""Tenant profiles: sweep matrices, sharing, plans, build modes."""

import json

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.energy.manager import EnergyManagerSession, ManagerConfig
from repro.fleet.profiles import ProfileStore
from repro.fleet.tenants import profile_key
from repro.sim.serialize import encode_trace
from tests.fleet.conftest import tiny_tenant


def test_build_dedups_by_profile_key(tiny_fleet, tiny_store):
    keys = {profile_key(tenant) for tenant in tiny_fleet}
    assert len(keys) == 4  # t0a/t0b share a profile
    diagnostics = ProfileStore().build(tiny_fleet)
    assert diagnostics["profiles_built"] == 4
    assert diagnostics["profiles_total"] == 4
    assert diagnostics["groups"] == 3  # three distinct workload shapes
    assert tiny_store.profile_for(tiny_fleet[0]) is tiny_store.profile_for(
        tiny_fleet[1]
    )


def test_rebuild_is_incremental(tiny_fleet):
    store = ProfileStore()
    store.build(tiny_fleet[:2])
    diagnostics = store.build(tiny_fleet)
    assert diagnostics["profiles_built"] == 3  # only the new shapes


def test_profile_for_requires_build(tiny_fleet):
    with pytest.raises(ConfigError, match="has not been built"):
        ProfileStore().profile_for(tiny_fleet[0])


def test_sweep_matrix_shape_and_self_prediction(tiny_fleet, tiny_store):
    tenant = tiny_fleet[0]
    profile = tiny_store.profile_for(tenant)
    n_intervals = len(profile.records)
    n_targets = len(profile.targets)
    assert profile.durations.shape == (n_intervals, n_targets)
    assert profile.energies.shape == (n_intervals, n_targets)
    # Predicting the base frequency reproduces the measured durations.
    base_col = profile.durations[:, profile.index_of(tenant.base_freq_ghz)]
    measured = np.array([r.duration_ns for r in profile.records])
    assert base_col.sum() == pytest.approx(measured.sum(), rel=0.02)


def test_durations_monotone_with_frequency(tiny_fleet, tiny_store):
    profile = tiny_store.profile_for(tiny_fleet[0])
    totals = [profile.total_ns(j) for j in range(len(profile.targets))]
    for slower, faster in zip(totals, totals[1:]):
        assert faster <= slower * (1.0 + 1e-9)


def test_whole_run_totals_are_memoized_column_sums(tiny_fleet, tiny_store):
    profile = tiny_store.profile_for(tiny_fleet[0])
    for j in range(len(profile.targets)):
        duration = profile.total_ns(j)
        assert duration == float(profile.durations[:, j].sum())
        assert profile.total_ns(j) is duration
        energy = profile.total_energy_j(j)
        assert energy == float(profile.energies[:, j].sum())
        assert profile.total_energy_j(j) is energy


def test_sane_indices_bounded_by_baseline_energy(tiny_fleet, tiny_store):
    profile = tiny_store.profile_for(tiny_fleet[0])
    assert profile.fmax_index in profile.sane_indices
    ceiling = profile.baseline_energy_j * (1.0 + 1e-9)
    for j in profile.sane_indices:
        assert profile.total_energy_j(j) <= ceiling


def test_static_run_respects_the_bound(tiny_fleet, tiny_store):
    profile = tiny_store.profile_for(tiny_fleet[0])
    oracle = profile.static_run(0.10)
    assert oracle.slowdown <= 0.10 + 1e-9
    assert oracle.energy_j <= profile.baseline_energy_j * (1.0 + 1e-9)
    sane = profile.static_run(0.10, sane_only=True)
    assert profile.index_of(sane.freq_ghz) in profile.sane_indices


def test_index_of_rejects_off_grid_frequencies(tiny_fleet, tiny_store):
    with pytest.raises(ConfigError):
        tiny_store.profile_for(tiny_fleet[0]).index_of(3.1415)


def test_governor_plan_matches_a_direct_session(tiny_fleet, tiny_store):
    profile = tiny_store.profile_for(tiny_fleet[0])
    manager = ManagerConfig(tolerable_slowdown=0.10)
    plan = profile.governor_plan(manager)
    assert plan is profile.governor_plan(manager)  # memoized

    session = EnergyManagerSession(
        profile.spec, manager, predictor=profile.predictor, sweep=True
    )
    for i, record in enumerate(profile.records[:-1]):
        session.step(record, profile.epochs_for(i))
    assert plan.decisions == session.decisions
    assert len(plan.freq_indices) == len(profile.records)
    # The first interval always runs at the maximum frequency.
    assert plan.freq_indices[0] == profile.fmax_index
    expected = sum(
        float(profile.durations[i, j])
        for i, j in enumerate(plan.freq_indices)
    )
    assert plan.duration_ns == pytest.approx(expected)


def test_batched_and_unbatched_builds_are_identical(tiny_fleet):
    batched = ProfileStore()
    batched.build(tiny_fleet, batch=True)
    naive = ProfileStore()
    diagnostics = naive.build(tiny_fleet, batch=False)
    # The naive path simulates per tenant, not per shape.
    assert diagnostics["profiles_built"] == len(tiny_fleet)
    assert diagnostics["profiles_total"] == 4
    for tenant in tiny_fleet:
        a = batched.profile_for(tenant)
        b = naive.profile_for(tenant)
        assert np.array_equal(a.durations, b.durations)
        assert np.array_equal(a.energies, b.energies)


def test_batched_and_naive_builds_store_identical_trace_bytes():
    # One workload at two bases is one batch group with two lanes, and
    # both collect garbage, so they meet the same GC cycles.
    tenants = [
        tiny_tenant("g3", seed=5, base=3.0, alloc_bytes_per_unit=200_000),
        tiny_tenant("g2", seed=5, base=2.0, alloc_bytes_per_unit=200_000),
        tiny_tenant("q", seed=6, base=3.0),
    ]
    batched = ProfileStore()
    batched.build(tenants, batch=True)
    naive = ProfileStore()
    naive.build(tenants, batch=False)
    for tenant in tenants:
        a = batched.profile_for(tenant).trace
        b = naive.profile_for(tenant).trace
        if tenant.name != "q":
            assert a.gc_cycles >= 2
        same = json.dumps(encode_trace(a), sort_keys=True) == json.dumps(
            encode_trace(b), sort_keys=True
        )
        assert same, tenant.name


def test_injected_traces_skip_simulation(tiny_fleet, tiny_store):
    tenant = tiny_fleet[0]
    key = profile_key(tenant)
    store = ProfileStore()
    diagnostics = store.build(
        [tenant], traces={key: tiny_store.profile_for(tenant).trace}
    )
    assert diagnostics["profiles_built"] == 0
    assert store.profile_for(tenant).baseline_ns == pytest.approx(
        tiny_store.profile_for(tenant).baseline_ns
    )
