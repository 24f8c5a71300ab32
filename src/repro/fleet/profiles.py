"""Tenant profiles: simulate once per shape, answer every policy question.

A fleet of a thousand tenants contains only a handful of distinct
*profiles* — (workload, base frequency, quantum, predictor) tuples
(:func:`repro.fleet.tenants.profile_key`). The :class:`ProfileStore`
simulates each distinct profile exactly once (batched through
:mod:`repro.sim.batch` by default, so profiles sharing a program warm
one :class:`~repro.sim.batch.SharedTimingStore` in a single
multi-frequency columnar pass) and builds a :class:`TenantProfile` from
the trace.

A profile holds per-interval **sweep matrices**: ``D[i, j]`` is the
predicted duration of interval ``i`` at set point ``j`` (one
:func:`~repro.core.sweep.sweep_predict_epochs` kernel call per
interval over the interval's epoch slice), and ``E[i, j]`` prices that
duration with the chip power model. Every fleet policy is then pure
arithmetic over these matrices:

* static frequencies: column sums,
* the paper governor: an :class:`~repro.energy.manager.EnergyManagerSession`
  stepped over the recorded intervals, with the decision stream mapped
  back through ``D``/``E`` (memoized per manager config — tenants
  sharing a profile and threshold share the stepping too),
* prediction-driven fleet policies: the *energy-sane* candidate set
  ``{f : E_total(f) <= E_total(f_max)}``, which is what makes the
  ``fleet-policy-dominance`` invariant hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.core.epochs import Epoch
from repro.core.predictors import make_predictor
from repro.core.sweep import EpochArrays, sweep_predict_epochs
from repro.energy.manager import (
    EnergyManagerSession,
    ManagerConfig,
    ManagerDecision,
    interval_epochs,
)
from repro.energy.power import PowerModel
from repro.energy.static_oracle import StaticOracleResult, static_optimal
from repro.fleet.profile_cache import ProfileCache, key_for_tenant
from repro.fleet.tenants import TenantSpec, profile_key, workload_fingerprint
from repro.sim.run import simulate
from repro.sim.trace import SimulationTrace

#: Relative slack of the energy-sane candidate comparison.
_SANE_REL_EPS = 1e-12


@dataclass
class GovernorPlan:
    """One profile's paper-governor outcome for one manager config."""

    duration_ns: float
    energy_j: float
    decisions: List[ManagerDecision]
    #: Set-point index in effect during each interval.
    freq_indices: List[int]


class TenantProfile:
    """Sweep-matrix view of one simulated tenant shape."""

    def __init__(
        self,
        key: str,
        trace: SimulationTrace,
        spec: MachineSpec,
        predictor_name: str,
        power_model: PowerModel,
    ) -> None:
        self.key = key
        self.trace = trace
        self.spec = spec
        self.predictor_name = predictor_name
        self.power_model = power_model
        self.predictor = make_predictor(predictor_name)
        self.records = list(trace.intervals)
        if not self.records:
            raise ConfigError(f"profile {key} has an empty trace")
        self.targets: Tuple[float, ...] = spec.frequencies()
        self._index_of = {freq: j for j, freq in enumerate(self.targets)}
        self.fmax_index = self._index_of[spec.max_freq_ghz]
        self._epochs: Optional[List[List[Epoch]]] = None
        self._durations: Optional[np.ndarray] = None
        self._energies: Optional[np.ndarray] = None
        self._sane: Optional[List[int]] = None
        self._totals_ns: Dict[int, float] = {}
        self._totals_energy_j: Dict[int, float] = {}
        self._governor_plans: Dict[ManagerConfig, GovernorPlan] = {}
        self._static_runs: Dict[Tuple[float, bool], StaticOracleResult] = {}

    # ------------------------------------------------------------------
    # Sweep matrices (lazy, computed once)
    # ------------------------------------------------------------------

    def epochs_for(self, index: int) -> List[Epoch]:
        """Epoch slice of interval ``index`` (the governor's input)."""
        if self._epochs is None:
            self._epochs = [
                interval_epochs(record, self.trace) for record in self.records
            ]
        return self._epochs[index]

    @property
    def durations(self) -> np.ndarray:
        """``D[i, j]``: predicted ns of interval ``i`` at set point ``j``."""
        if self._durations is None:
            rows = []
            for i, record in enumerate(self.records):
                epochs = self.epochs_for(i)
                if epochs:
                    row = sweep_predict_epochs(
                        self.predictor,
                        EpochArrays.from_epochs(epochs),
                        record.freq_ghz,
                        self.targets,
                    )
                    row = [max(value, 0.0) for value in row]
                else:
                    row = [record.duration_ns] * len(self.targets)
                # A degenerate decomposition (no predictable work) falls
                # back to the measured duration at every set point.
                if row[self.fmax_index] <= 0.0:
                    row = [record.duration_ns] * len(self.targets)
                rows.append(row)
            self._durations = np.asarray(rows, dtype=np.float64)
        return self._durations

    @property
    def energies(self) -> np.ndarray:
        """``E[i, j]``: power-model joules of interval ``i`` at point ``j``."""
        if self._energies is None:
            durations = self.durations
            rows = []
            for i, record in enumerate(self.records):
                counters = record.aggregate()
                rows.append(
                    [
                        self.power_model.interval_energy_j(
                            counters, float(durations[i, j]), freq
                        )
                        for j, freq in enumerate(self.targets)
                    ]
                )
            self._energies = np.asarray(rows, dtype=np.float64)
        return self._energies

    # ------------------------------------------------------------------
    # Whole-run views
    # ------------------------------------------------------------------

    def total_ns(self, index: int) -> float:
        """Predicted whole-run duration at set point ``index``, memoized.

        Each column is summed on its own: a whole-matrix ``sum(axis=0)``
        adds in another order, which would move report bytes.
        """
        total = self._totals_ns.get(index)
        if total is None:
            total = self._totals_ns[index] = float(
                self.durations[:, index].sum()
            )
        return total

    def total_energy_j(self, index: int) -> float:
        """Predicted whole-run energy at set point ``index`` (memoized)."""
        total = self._totals_energy_j.get(index)
        if total is None:
            total = self._totals_energy_j[index] = float(
                self.energies[:, index].sum()
            )
        return total

    @property
    def baseline_ns(self) -> float:
        """Predicted whole-run duration at the highest frequency."""
        return self.total_ns(self.fmax_index)

    @property
    def baseline_energy_j(self) -> float:
        """Predicted whole-run energy at the highest frequency."""
        return self.total_energy_j(self.fmax_index)

    @property
    def sane_indices(self) -> List[int]:
        """Set points whose whole-run energy does not exceed the all-max
        baseline, ascending; always contains the maximum frequency.

        Prediction-driven fleet policies choose only among these, which
        bounds their aggregate energy by the all-max baseline no matter
        how the fleet interleaves (the dominance invariant).
        """
        if self._sane is None:
            ceiling = self.baseline_energy_j * (1.0 + _SANE_REL_EPS)
            sane = [
                j
                for j in range(len(self.targets))
                if self.total_energy_j(j) <= ceiling
            ]
            if self.fmax_index not in sane:
                sane.append(self.fmax_index)
            self._sane = sorted(sane)
        return self._sane

    def static_run(
        self, tolerable_slowdown: float, sane_only: bool = False
    ) -> StaticOracleResult:
        """Minimum-energy fixed set point within the slowdown bound.

        ``sane_only`` restricts the candidates to :attr:`sane_indices`
        (what the prediction-driven policies use); the unrestricted
        variant is the per-tenant static oracle the comparison driver
        reports against.
        """
        key = (tolerable_slowdown, sane_only)
        if key not in self._static_runs:
            indices = self.sane_indices if sane_only else range(len(self.targets))
            runs = {
                self.targets[j]: (self.total_ns(j), self.total_energy_j(j))
                for j in indices
            }
            runs.setdefault(
                self.spec.max_freq_ghz,
                (self.baseline_ns, self.baseline_energy_j),
            )
            self._static_runs[key] = static_optimal(
                runs, tolerable_slowdown, self.spec.max_freq_ghz
            )
        return self._static_runs[key]

    def index_of(self, freq_ghz: float) -> int:
        """Set-point index of an exact spec frequency."""
        try:
            return self._index_of[freq_ghz]
        except KeyError:
            raise ConfigError(
                f"{freq_ghz} GHz is not a set point of the machine spec"
            ) from None

    # ------------------------------------------------------------------
    # Paper governor (memoized per manager config)
    # ------------------------------------------------------------------

    def governor_plan(self, manager: ManagerConfig) -> GovernorPlan:
        """Step the paper governor over the profile's intervals.

        The session sees the recorded intervals exactly as the serve
        replay path would (every interval but the last is stepped; a
        decision takes effect from the following interval; the run
        starts at the highest frequency). Duration and energy follow
        the in-effect set point through the sweep matrices.
        """
        if manager not in self._governor_plans:
            session = EnergyManagerSession(
                self.spec, manager, predictor=self.predictor, sweep=True
            )
            durations = self.durations
            energies = self.energies
            in_effect = self.fmax_index
            duration = 0.0
            energy = 0.0
            freq_indices: List[int] = []
            last = len(self.records) - 1
            for i, record in enumerate(self.records):
                freq_indices.append(in_effect)
                duration += float(durations[i, in_effect])
                energy += float(energies[i, in_effect])
                if i < last:
                    switched = session.step(record, self.epochs_for(i))
                    if switched is not None:
                        in_effect = self.index_of(switched)
            self._governor_plans[manager] = GovernorPlan(
                duration_ns=duration,
                energy_j=energy,
                decisions=list(session.decisions),
                freq_indices=freq_indices,
            )
        return self._governor_plans[manager]


class ProfileStore:
    """Builds and caches :class:`TenantProfile` objects for a fleet.

    ``cache`` layers a persistent
    :class:`~repro.fleet.profile_cache.ProfileCache` under the
    in-memory profile map: batched builds read traces through it before
    simulating and publish what they simulate, so repeat runs — and
    every cell of a policy × cap grid sharing the store's directory —
    skip the simulation entirely. Cached traces round-trip bit-exactly,
    so warm profiles are byte-identical to cold ones.
    """

    def __init__(
        self,
        spec: Optional[MachineSpec] = None,
        power_model: Optional[PowerModel] = None,
        cache: Optional[ProfileCache] = None,
    ) -> None:
        self.spec = spec or haswell_i7_4770k()
        self.power_model = power_model or PowerModel(self.spec)
        self.cache = cache
        self.profiles: Dict[str, TenantProfile] = {}
        self._programs: Dict[str, object] = {}

    def _program_for(self, tenant: TenantSpec):
        """One ``Program`` object per workload shape: profiles sharing a
        shape must share the object so batched lanes share a timing
        store (sharing is by identity, not equality)."""
        fingerprint = workload_fingerprint(tenant.workload)
        program = self._programs.get(fingerprint)
        if program is None:
            program = self._programs[fingerprint] = tenant.program()
        return program

    def build(
        self,
        tenants: Sequence[TenantSpec],
        batch: bool = True,
        traces: Optional[Dict[str, SimulationTrace]] = None,
    ) -> Dict[str, int]:
        """Simulate the profiles a fleet needs.

        Batched (the default), tenants are first deduplicated by
        profile key, the distinct shapes run through
        :func:`repro.sim.batch.run_batch` — shapes sharing a workload
        share one program object, so each family's static segments are
        pre-timed once across its base frequencies — and every tenant
        attaches to its group's profile. Unbatched is the naive
        baseline the fleet bench measures against: **every tenant** is
        simulated independently, fresh program, no cross-tenant sharing
        of any kind (and no cache). The modes produce byte-identical
        profiles (simulation is a pure function of the tenant shape);
        only the work repeated changes.

        With a persistent :attr:`cache`, batched builds fetch each
        shape's trace from the cache first and publish every trace they
        simulate — warm profiles are byte-identical to cold ones, the
        ``fleet-store-identity`` invariant.

        ``traces`` injects pre-simulated traces by profile key (the
        dominance invariant reuses the QA context's simulations this
        way). Returns build diagnostics: profile/group/prewarm counts
        plus ``cache_hits``.
        """
        pending: List[Tuple[str, TenantSpec]] = []
        pending_keys = set()
        cache_hits = 0
        for tenant in tenants:
            key = profile_key(tenant)
            if key in self.profiles:
                continue
            if traces and key in traces:
                self.profiles[key] = TenantProfile(
                    key, traces[key], self.spec, tenant.predictor,
                    self.power_model,
                )
                continue
            if batch and key in pending_keys:
                continue
            if batch and self.cache is not None:
                cached = self.cache.get(key_for_tenant(tenant, self.spec))
                if cached is not None:
                    cache_hits += 1
                    self.profiles[key] = TenantProfile(
                        key, cached, self.spec, tenant.predictor,
                        self.power_model,
                    )
                    continue
            pending_keys.add(key)
            pending.append((key, tenant))
        groups = 0
        prewarmed = 0
        if pending:
            if batch:
                from repro.sim.batch import BatchInstance, run_batch

                report = run_batch(
                    [
                        BatchInstance(
                            program=self._program_for(tenant),
                            freq_ghz=tenant.base_freq_ghz,
                            spec=self.spec,
                            quantum_ns=tenant.quantum_ns,
                            label=key,
                        )
                        for key, tenant in pending
                    ]
                )
                results = report.results
                groups = report.groups
                prewarmed = report.prewarmed_freqs
            else:
                results = [
                    simulate(
                        tenant.program(),
                        tenant.base_freq_ghz,
                        spec=self.spec,
                        quantum_ns=tenant.quantum_ns,
                    )
                    for key, tenant in pending
                ]
            for (key, tenant), result in zip(pending, results):
                if batch and self.cache is not None:
                    self.cache.put(
                        key_for_tenant(tenant, self.spec), result.trace
                    )
                self.profiles[key] = TenantProfile(
                    key, result.trace, self.spec, tenant.predictor,
                    self.power_model,
                )
        return {
            "profiles_built": len(pending),
            "profiles_total": len(self.profiles),
            "groups": groups,
            "prewarmed_freqs": prewarmed,
            "cache_hits": cache_hits,
        }

    def profile_for(self, tenant: TenantSpec) -> TenantProfile:
        """The (already built) profile backing ``tenant``."""
        key = profile_key(tenant)
        profile = self.profiles.get(key)
        if profile is None:
            raise ConfigError(
                f"profile {key} for tenant {tenant.name!r} has not been "
                "built; call ProfileStore.build first"
            )
        return profile
