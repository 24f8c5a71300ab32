"""Cached ground-truth simulation runner shared by all experiments.

Every experiment needs some mix of: fixed-frequency ground-truth runs
(execution time, GC time, energy), the base-frequency *traces* the
predictors consume, and managed (governor-controlled) runs. Simulations
dominate the suite's cost, so the runner memoizes them at two levels:

* in-process — fixed-run summaries per (benchmark, frequency), managed
  runs per (benchmark, threshold); traces are kept only for the
  prediction base frequencies (1 and 4 GHz), other runs are summarized
  and dropped to bound memory;
* on disk, when constructed with a
  :class:`~repro.experiments.cache.ResultCache` — results are stored
  under content-addressed keys so later processes (CLI reruns, parallel
  workers, tests) skip the simulation entirely.

``runner.simulations`` counts the simulations this process actually ran,
which is how tests assert that a warm cache performs zero new work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predictors import make_predictor
from repro.core.sweep import TraceSweep
from repro.energy.account import compute_energy
from repro.energy.manager import EnergyManager, ManagerConfig, ManagerDecision
from repro.energy.power import PowerModel
from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache
from repro.experiments.setup import ExperimentConfig, default_config
from repro.sim.run import simulate, simulate_managed
from repro.sim.trace import SimulationTrace
from repro.workloads.registry import BenchmarkBundle, get_benchmark

#: Frequencies whose traces are retained for offline prediction.
_BASE_FREQS = (1.0, 4.0)


@dataclass
class FixedRun:
    """Summary of one fixed-frequency ground-truth simulation."""

    benchmark: str
    freq_ghz: float
    total_ns: float
    gc_time_ns: float
    gc_cycles: int
    energy_j: float
    #: Retained only for prediction base frequencies.
    trace: Optional[SimulationTrace] = None


@dataclass
class ManagedRun:
    """Summary of one energy-managed simulation."""

    benchmark: str
    threshold: float
    total_ns: float
    energy_j: float
    decisions: List[ManagerDecision]

    @property
    def mean_freq_ghz(self) -> float:
        """Average frequency chosen across quanta."""
        if not self.decisions:
            return 0.0
        return sum(d.chosen_freq_ghz for d in self.decisions) / len(self.decisions)


class ExperimentRunner:
    """Simulation cache + convenience accessors for the experiment suite.

    ``cache`` is optional: without one the runner memoizes in-process
    only (the hermetic default for library use and unit tests); with one,
    every ground truth is first looked up on disk and persisted after
    computing, so separate processes share a single store.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config or default_config()
        self.cache = cache
        #: Simulations actually executed by this process (cache misses).
        self.simulations = 0
        self._bundles: Dict[str, BenchmarkBundle] = {}
        self._fixed: Dict[Tuple[str, float], FixedRun] = {}
        self._managed: Dict[Tuple[str, float], ManagedRun] = {}
        self._power_models: Dict[str, PowerModel] = {}
        self._sweeps: Dict[Tuple[str, float], TraceSweep] = {}

    def bundle(self, benchmark: str) -> BenchmarkBundle:
        """The (cached) benchmark bundle at the configured scale."""
        bundle = self._bundles.get(benchmark)
        if bundle is None:
            bundle = get_benchmark(benchmark, scale=self.config.scale)
            self._bundles[benchmark] = bundle
        return bundle

    def power_model(self, benchmark: str) -> PowerModel:
        """The power model for a benchmark's machine spec."""
        model = self._power_models.get(benchmark)
        if model is None:
            model = PowerModel(self.bundle(benchmark).spec)
            self._power_models[benchmark] = model
        return model

    def fingerprint(self, benchmark: str) -> dict:
        """Cache-key identity of a benchmark at the configured scale."""
        return self.bundle(benchmark).fingerprint

    # ------------------------------------------------------------------
    # Ground-truth runs
    # ------------------------------------------------------------------

    def fixed_run(self, benchmark: str, freq_ghz: float) -> FixedRun:
        """Simulate (once) ``benchmark`` at a fixed frequency."""
        key = (benchmark, round(freq_ghz, 6))
        cached = self._fixed.get(key)
        if cached is not None:
            return cached
        disk_key = None
        if self.cache is not None:
            disk_key = cache_mod.fixed_key(
                self.fingerprint(benchmark), freq_ghz, self.config.quantum_ns
            )
            run = self.cache.load_fixed(disk_key, benchmark)
            if run is not None:
                self._fixed[key] = run
                return run
        bundle = self.bundle(benchmark)
        result = simulate(
            bundle.program,
            freq_ghz,
            spec=bundle.spec,
            jvm_config=bundle.jvm_config,
            gc_model=bundle.gc_model,
            quantum_ns=self.config.quantum_ns,
        )
        self.simulations += 1
        energy = compute_energy(
            result.trace, bundle.spec, self.power_model(benchmark)
        )
        keep_trace = any(abs(freq_ghz - base) < 1e-9 for base in _BASE_FREQS)
        run = FixedRun(
            benchmark=benchmark,
            freq_ghz=freq_ghz,
            total_ns=result.total_ns,
            gc_time_ns=result.trace.gc_time_ns,
            gc_cycles=result.trace.gc_cycles,
            energy_j=energy.total_j,
            trace=result.trace if keep_trace else None,
        )
        if disk_key is not None:
            self.cache.store_fixed(disk_key, run)
        self._fixed[key] = run
        return run

    def base_trace(self, benchmark: str, base_freq_ghz: float) -> SimulationTrace:
        """The retained trace of a base-frequency run (1 or 4 GHz)."""
        run = self.fixed_run(benchmark, base_freq_ghz)
        if run.trace is None:
            raise ValueError(
                f"no trace retained for {benchmark} at {base_freq_ghz} GHz; "
                f"base frequencies are {_BASE_FREQS}"
            )
        return run.trace

    def trace_sweep(self, benchmark: str, base_freq_ghz: float) -> TraceSweep:
        """The (memoized) sweep decomposition of a base-frequency trace.

        One :class:`~repro.core.sweep.TraceSweep` per (benchmark, base)
        is shared by every figure/table driver, so a whole error grid
        costs a single epoch decomposition per trace. Its lane grid is
        DEP and DEP+BURST at every frequency the configuration names,
        so the first DEP question about a trace folds the DEP lanes of
        every later figure in the same CTP pass.
        """
        key = (benchmark, round(base_freq_ghz, 6))
        sweep = self._sweeps.get(key)
        if sweep is None:
            config = self.config
            freqs = sorted(
                {
                    *config.targets_up_ghz,
                    *config.targets_down_ghz,
                    *config.static_freqs_ghz,
                }
            )
            sweep = TraceSweep(
                self.base_trace(benchmark, base_freq_ghz),
                grid=[
                    (make_predictor(name), freqs)
                    for name in ("DEP", "DEP+BURST")
                ],
            )
            self._sweeps[key] = sweep
        return sweep

    def predict(
        self,
        benchmark: str,
        base_freq_ghz: float,
        predictor,
        targets: Sequence[float],
    ) -> List[float]:
        """``predictor``'s total-time estimates at ``targets`` from the
        base-frequency trace, through the shared :meth:`trace_sweep`.

        Every figure driver predicts through this one method, so a test
        can swap in a reference path (the scalar per-target loop) by
        overriding it."""
        return self.trace_sweep(benchmark, base_freq_ghz).predict(
            predictor, targets
        )

    # ------------------------------------------------------------------
    # Managed runs
    # ------------------------------------------------------------------

    def managed_run(self, benchmark: str, threshold: float) -> ManagedRun:
        """Simulate (once) ``benchmark`` under the energy manager."""
        key = (benchmark, round(threshold, 6))
        cached = self._managed.get(key)
        if cached is not None:
            return cached
        manager_config = ManagerConfig(tolerable_slowdown=threshold)
        disk_key = None
        if self.cache is not None:
            disk_key = cache_mod.managed_key(
                self.fingerprint(benchmark),
                manager_config,
                self.config.quantum_ns,
                prediction=cache_mod.prediction_fingerprint(),
            )
            run = self.cache.load_managed(disk_key, benchmark)
            if run is not None:
                self._managed[key] = run
                return run
        bundle = self.bundle(benchmark)
        manager = EnergyManager(bundle.spec, manager_config)
        result = simulate_managed(
            bundle.program,
            manager,
            spec=bundle.spec,
            jvm_config=bundle.jvm_config,
            gc_model=bundle.gc_model,
            quantum_ns=self.config.quantum_ns,
        )
        self.simulations += 1
        energy = compute_energy(
            result.trace, bundle.spec, self.power_model(benchmark)
        )
        run = ManagedRun(
            benchmark=benchmark,
            threshold=threshold,
            total_ns=result.total_ns,
            energy_j=energy.total_j,
            decisions=list(manager.decisions),
        )
        if self.cache is not None and disk_key is not None:
            self.cache.store_managed(disk_key, run)
        self._managed[key] = run
        return run

