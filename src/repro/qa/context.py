"""Shared per-case evaluation state.

Invariants are independent predicates, but most of them consume the same
expensive inputs — the simulated traces of one fuzz case at a couple of
frequencies, their epoch decompositions, a managed run's decision log.
:class:`CaseContext` owns those inputs and materializes each one lazily,
exactly once, so composing N invariants over a case costs one simulation
per (frequency, engine) pair rather than N.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.core.epochs import Epoch, extract_epochs
from repro.energy.manager import EnergyManager, ManagerDecision
from repro.qa.fuzzer import FuzzCase
from repro.sim.run import SimulationResult, simulate, simulate_managed
from repro.sim.trace import SimulationTrace
from repro.workloads.program import Program


class CaseContext:
    """Lazily-simulated views of one fuzz case.

    ``serve_client`` is an optional live :class:`repro.serve.client
    .ServeClient` the serve differentials use; contexts without one make
    those invariants report themselves as skipped.
    """

    def __init__(
        self,
        case: FuzzCase,
        spec: Optional[MachineSpec] = None,
        serve_client=None,
    ) -> None:
        self.case = case
        self.spec = spec or haswell_i7_4770k()
        self.serve_client = serve_client
        self._program: Optional[Program] = None
        self._results: Dict[Tuple[float, str], SimulationResult] = {}
        self._epochs: Dict[Tuple[float, str], List[Epoch]] = {}
        self._managed: Dict[
            Tuple[str, bool], Tuple[SimulationTrace, List[ManagerDecision]]
        ] = {}

    @property
    def program(self) -> Program:
        """The case's deterministic program (built once)."""
        if self._program is None:
            self._program = self.case.program()
        return self._program

    def result(
        self, freq_ghz: Optional[float] = None, engine: str = "fast"
    ) -> SimulationResult:
        """Fixed-frequency simulation at ``freq_ghz`` (default: base)."""
        freq = self.case.base_freq_ghz if freq_ghz is None else freq_ghz
        key = (freq, engine)
        if key not in self._results:
            self._results[key] = simulate(
                self.program,
                freq,
                spec=self.spec,
                quantum_ns=self.case.quantum_ns,
                engine=engine,
            )
        return self._results[key]

    def epochs(
        self, freq_ghz: Optional[float] = None, engine: str = "fast"
    ) -> List[Epoch]:
        """Epoch decomposition of the trace at ``freq_ghz``."""
        freq = self.case.base_freq_ghz if freq_ghz is None else freq_ghz
        key = (freq, engine)
        if key not in self._epochs:
            self._epochs[key] = extract_epochs(self.result(freq, engine).trace.events)
        return self._epochs[key]

    def managed(
        self, engine: str = "fast", sweep: bool = True
    ) -> Tuple[SimulationTrace, List[ManagerDecision]]:
        """Managed run under the case's energy manager: (trace, decisions).

        ``sweep`` selects the manager's candidate-evaluation engine (one
        sweep-kernel call vs. the per-frequency scalar loop); both must
        produce identical decisions, which the sweep differential checks.
        """
        key = (engine, sweep)
        if key not in self._managed:
            manager = EnergyManager(self.spec, self.case.manager, sweep=sweep)
            result = simulate_managed(
                self.program,
                manager,
                spec=self.spec,
                quantum_ns=self.case.quantum_ns,
                engine=engine,
            )
            self._managed[key] = (result.trace, list(manager.decisions))
        return self._managed[key]

    def target_ladder(self) -> List[float]:
        """Ascending target frequencies the prediction invariants sweep.

        A five-point subset of the spec's set points (ends, midpoint and
        the case's own pair) — enough to catch non-monotone scaling
        without evaluating all 25 set points per predictor per case.
        """
        freqs = self.spec.frequencies()
        picks = {
            freqs[0],
            freqs[len(freqs) // 2],
            freqs[-1],
            self.case.base_freq_ghz,
            self.case.high_freq_ghz,
        }
        return sorted(picks)
