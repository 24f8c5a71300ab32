"""Fleet policies: registry, plan shapes, energy-sane candidates."""

import pytest

from repro.common.errors import ConfigError
from repro.fleet.policy import (
    get_policy,
    policy_names,
    prediction_driven_names,
)

CAP_W = 200.0


def _policy(name, store):
    return get_policy(name)(store, CAP_W)


def test_registry_names_and_order():
    assert policy_names() == [
        "static-max",
        "paper-governor",
        "static-oracle",
        "predictive-admission",
        "tail-allocator",
    ]
    assert prediction_driven_names() == [
        "predictive-admission",
        "tail-allocator",
    ]
    for name in prediction_driven_names():
        assert get_policy(name).capped


def test_unknown_policy_lists_choices():
    with pytest.raises(ConfigError, match="static-max"):
        get_policy("nope")


def test_static_max_plan_is_the_baseline(tiny_fleet, tiny_store):
    tenant = tiny_fleet[0]
    profile = tiny_store.profile_for(tenant)
    plan = _policy("static-max", tiny_store).plan(tenant)
    assert plan.duration_ns == profile.baseline_ns
    assert plan.energy_j == profile.baseline_energy_j
    assert plan.freq_index == profile.fmax_index


def test_paper_governor_plan_is_multi_frequency(tiny_fleet, tiny_store):
    plan = _policy("paper-governor", tiny_store).plan(tiny_fleet[0])
    assert plan.freq_index is None
    profile = tiny_store.profile_for(tiny_fleet[0])
    assert plan.energy_j <= profile.baseline_energy_j * (1.0 + 1e-9)


def test_static_oracle_plan_respects_the_tenant_bound(tiny_fleet, tiny_store):
    tenant = tiny_fleet[0]
    profile = tiny_store.profile_for(tenant)
    plan = _policy("static-oracle", tiny_store).plan(tenant)
    bound = tenant.manager.tolerable_slowdown
    assert plan.duration_ns <= profile.baseline_ns * (1.0 + bound + 1e-9)


def test_admission_policy_has_one_sane_candidate(tiny_fleet, tiny_store):
    tenant = tiny_fleet[0]
    profile = tiny_store.profile_for(tenant)
    cands = _policy("predictive-admission", tiny_store).candidates(tenant)
    assert len(cands) == 1
    assert cands[0].freq_index in profile.sane_indices


def test_tail_candidates_are_all_sane_and_floor_first(tiny_fleet, tiny_store):
    tenant = tiny_fleet[0]
    profile = tiny_store.profile_for(tenant)
    cands = _policy("tail-allocator", tiny_store).candidates(tenant)
    assert [c.freq_index for c in cands] == profile.sane_indices
    ceiling = profile.baseline_energy_j * (1.0 + 1e-9)
    for cand in cands:
        assert cand.duration_ns > 0
        assert cand.power_w * cand.duration_ns * 1e-9 <= ceiling
    # The engine treats candidate 0 as the power floor.
    assert cands[0].power_w == min(c.power_w for c in cands)
    # Higher candidates are faster (monotone durations).
    for slower, faster in zip(cands, cands[1:]):
        assert faster.duration_ns <= slower.duration_ns * (1.0 + 1e-9)


def test_candidates_are_one_shared_tuple_per_profile(tiny_fleet, tiny_store):
    # t0a and t0b share a profile but not a threshold.
    tail = _policy("tail-allocator", tiny_store)
    first = tail.candidates(tiny_fleet[0])
    assert isinstance(first, tuple)
    assert tail.candidates(tiny_fleet[1]) is first
    assert tail.candidates(tiny_fleet[2]) is not first
    admission = _policy("predictive-admission", tiny_store)
    same = tiny_fleet[0]
    assert admission.candidates(same) is admission.candidates(same)
    assert isinstance(admission.candidates(same), tuple)
    bounds = {t.manager.tolerable_slowdown for t in tiny_fleet[:2]}
    assert len(bounds) == 2  # distinct thresholds: separate tuples
    assert admission.candidates(tiny_fleet[1]) is not admission.candidates(same)
