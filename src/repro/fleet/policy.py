"""Pluggable fleet policies: who runs when, and at what frequency.

A policy answers two questions for the event engine
(:mod:`repro.fleet.engine`):

* **fixed-plan** policies (``capped = False``) commit each tenant to a
  (duration, energy) plan at admission and never react to fleet state —
  the all-max baseline, the per-tenant paper governor and the
  per-tenant static oracle are all of this shape;
* **capped** policies (``capped = True``) expose per-tenant frequency
  *candidates* (duration + average power per candidate) and interact
  with the fleet power cap: admission gating, and for the tail-aware
  allocator a re-allocation hook run at every fleet event.

Prediction-driven policies (``prediction_driven = True``) restrict
their candidates to the profile's *energy-sane* set — set points whose
predicted whole-run energy does not exceed the all-max baseline — so
whatever mix of candidates the fleet dynamics realize, aggregate
energy stays at or below the baseline. That structural bound is what
the ``fleet-policy-dominance`` QA invariant regression-checks.

Tie-breaks everywhere are deterministic (tenant sequence number), so a
fleet run is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.common.errors import ConfigError
from repro.energy.manager import ManagerConfig
from repro.fleet.profiles import ProfileStore, TenantProfile
from repro.fleet.tenants import TenantSpec


@dataclass(frozen=True)
class FixedPlan:
    """A committed per-tenant run: total duration and energy."""

    duration_ns: float
    energy_j: float
    #: Set-point index for single-frequency plans (None: governor path).
    freq_index: Optional[int] = None


@dataclass(frozen=True)
class Candidate:
    """One admissible set point of a capped tenant."""

    #: Set-point index, or None for multi-frequency (governor) plans.
    freq_index: Optional[int]
    duration_ns: float
    #: Average chip power over the run at this set point (W).
    power_w: float


def _candidate(profile: TenantProfile, index: int) -> Candidate:
    duration = profile.total_ns(index)
    energy = profile.total_energy_j(index)
    power = energy / (duration * 1e-9) if duration > 0 else 0.0
    return Candidate(freq_index=index, duration_ns=duration, power_w=power)


class FleetPolicy:
    """Base class: metadata plus the two engine-facing hooks."""

    name: str = ""
    description: str = ""
    prediction_driven: bool = False
    capped: bool = False

    def __init__(self, store: ProfileStore, power_cap_w: float) -> None:
        self.store = store
        self.power_cap_w = power_cap_w
        #: Candidate tuples, built once per profile (and per threshold
        #: where the policy reads one) and shared by all its tenants.
        self._shared: Dict[tuple, Tuple[Candidate, ...]] = {}

    # Fixed-plan hook -----------------------------------------------------
    def plan(self, tenant: TenantSpec) -> FixedPlan:
        raise NotImplementedError

    # Capped hook ---------------------------------------------------------
    def candidates(self, tenant: TenantSpec) -> Sequence[Candidate]:
        """The tenant's candidates, floor first: an immutable tuple shared
        by every tenant with the same profile (and threshold)."""
        raise NotImplementedError

    #: Capped policies that re-allocate at every fleet event override this.
    reallocates: bool = False


class StaticMaxPolicy(FleetPolicy):
    """Everyone at the maximum frequency, cap ignored: the baseline."""

    name = "static-max"
    description = (
        "all tenants at the highest set point, no cap, no queueing — the "
        "energy/SLA comparison baseline"
    )

    def plan(self, tenant: TenantSpec) -> FixedPlan:
        profile = self.store.profile_for(tenant)
        return FixedPlan(
            duration_ns=profile.baseline_ns,
            energy_j=profile.baseline_energy_j,
            freq_index=profile.fmax_index,
        )


class PaperGovernorPolicy(FleetPolicy):
    """Each tenant under its own paper energy manager, no coordination."""

    name = "paper-governor"
    description = (
        "per-tenant slack-bounded energy manager (paper Section VI) "
        "stepped over the profile's intervals; no fleet coordination"
    )

    def plan(self, tenant: TenantSpec) -> FixedPlan:
        profile = self.store.profile_for(tenant)
        plan = profile.governor_plan(tenant.manager)
        return FixedPlan(duration_ns=plan.duration_ns, energy_j=plan.energy_j)


class StaticOraclePolicy(FleetPolicy):
    """Per-tenant static oracle: best fixed set point in hindsight."""

    name = "static-oracle"
    description = (
        "per-tenant minimum-energy fixed set point within the tenant's "
        "slowdown bound (energy.static_oracle over the sweep matrices)"
    )

    def plan(self, tenant: TenantSpec) -> FixedPlan:
        profile = self.store.profile_for(tenant)
        run = profile.static_run(tenant.manager.tolerable_slowdown)
        return FixedPlan(
            duration_ns=run.total_ns,
            energy_j=run.energy_j,
            freq_index=profile.index_of(run.freq_ghz),
        )


class AdmissionCapPolicy(FleetPolicy):
    """Prediction-based admission control under the fleet power cap.

    Each tenant runs at its predicted minimum-energy *energy-sane* set
    point within its own slowdown bound; admission is strict FIFO and a
    tenant starts only when its predicted average power fits under the
    cap (a tenant alone on the fleet always starts, counted as a solo
    override if it exceeds the cap by itself).
    """

    name = "predictive-admission"
    description = (
        "FIFO admission under the fleet power cap; each tenant at its "
        "predicted min-energy sane set point within its slowdown bound"
    )
    prediction_driven = True
    capped = True

    def candidates(self, tenant: TenantSpec) -> Tuple[Candidate, ...]:
        profile = self.store.profile_for(tenant)
        threshold = tenant.manager.tolerable_slowdown
        key = (profile.key, threshold)
        cands = self._shared.get(key)
        if cands is None:
            run = profile.static_run(threshold, sane_only=True)
            cands = self._shared[key] = (
                _candidate(profile, profile.index_of(run.freq_ghz)),
            )
        return cands


class TailAwarePolicy(FleetPolicy):
    """Tail-aware frequency allocation under the fleet power cap.

    Tenants are admitted as soon as their *cheapest* sane set point
    fits under the cap; at every fleet event the allocator rebuilds the
    assignment — everyone drops to their cheapest candidate, then the
    remaining power budget is spent raising tenants in order of worst
    projected whole-run slowdown (each raised to the fastest candidate
    that still fits). Slow tenants near their SLA get the power first;
    ties break on the tenant sequence number.
    """

    name = "tail-allocator"
    description = (
        "admit at the cheapest sane set point; at every event spend the "
        "power budget on the tenants with the worst projected slowdown"
    )
    prediction_driven = True
    capped = True
    reallocates = True

    def candidates(self, tenant: TenantSpec) -> Tuple[Candidate, ...]:
        profile = self.store.profile_for(tenant)
        key = (profile.key,)
        cands = self._shared.get(key)
        if cands is None:
            cands = self._shared[key] = tuple(
                _candidate(profile, j) for j in profile.sane_indices
            )
        return cands


_POLICIES: Dict[str, Type[FleetPolicy]] = {
    policy.name: policy
    for policy in (
        StaticMaxPolicy,
        PaperGovernorPolicy,
        StaticOraclePolicy,
        AdmissionCapPolicy,
        TailAwarePolicy,
    )
}


def policy_names() -> List[str]:
    """All registered policy names, in registration order."""
    return list(_POLICIES)


def prediction_driven_names() -> List[str]:
    """Names of the prediction-driven fleet policies (dominance scope)."""
    return [
        name
        for name, policy in _POLICIES.items()
        if policy.prediction_driven
    ]


def get_policy(name: str) -> Type[FleetPolicy]:
    """Registry lookup (:class:`ConfigError` with choices if unknown)."""
    policy = _POLICIES.get(name)
    if policy is None:
        raise ConfigError(
            f"unknown fleet policy {name!r}; expected one of {policy_names()}"
        )
    return policy


def default_manager() -> ManagerConfig:
    """The manager config used when a tenant spec does not carry one."""
    return ManagerConfig()
