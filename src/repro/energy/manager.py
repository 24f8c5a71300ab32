"""The slack-bounded energy manager (paper Section VI, Figure 5).

Every scheduling quantum (5 ms), the manager:

1. reads the DVFS counters the finished interval accumulated,
2. decomposes the interval into synchronization epochs and uses the
   predictor (DEP+BURST by default) to estimate the interval's duration at
   the **highest** frequency and at every candidate set point,
3. picks the lowest frequency whose predicted slowdown relative to the
   highest frequency stays within the user's ``tolerable_slowdown``,
4. honours a ``hold_off`` count of quanta between consecutive changes.

The guarantee argument from the paper: if every interval individually
stays within x% of its highest-frequency duration, the whole run does.
The manager therefore needs the predictor to be accurate in *both*
directions — under-prediction wastes energy, over-prediction breaks the
performance guarantee — which is exactly why Figure 6's slowdowns track
the threshold only as well as the predictor allows.

The quantum-step logic lives in :class:`EnergyManagerSession`, which is
callable step by step on ``(IntervalRecord, epochs)`` pairs without a
:class:`~repro.sim.trace.SimulationTrace` — this is what the online
prediction service (:mod:`repro.serve`) drives over the wire.
:class:`EnergyManager` remains the in-process governor: a thin wrapper
that slices each interval's epochs out of the live trace and delegates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.units import check_frequency
from repro.arch.specs import MachineSpec
from repro.core.burst import with_burst
from repro.core.crit import crit_nonscaling
from repro.core.dep import DepPredictor
from repro.core.epochs import Epoch, extract_epochs
from repro.core.sweep import EpochArrays, predict_target, sweep_predict_epochs
from repro.sim.intervals import IntervalRecord
from repro.sim.trace import SimulationTrace


@dataclass(frozen=True)
class ManagerConfig:
    """User-facing knobs of the energy manager."""

    #: Maximum tolerated slowdown vs. the highest frequency (e.g. 0.05).
    tolerable_slowdown: float = 0.05
    #: Quanta to wait between frequency changes (paper uses 1).
    hold_off: int = 1
    #: Ignore intervals with less busy time than this (idle tails).
    min_busy_ns: float = 10_000.0
    #: Extension beyond the paper: bank unused slowdown budget. The
    #: paper's per-interval guarantee is conservative — prediction bias
    #: and set-point quantization leave part of the budget unspent every
    #: quantum. With banking on, the manager tracks the cumulative
    #: achieved slowdown (estimated against the highest frequency) and
    #: widens/narrows the per-interval bound to steer the *whole-run*
    #: slowdown toward the user's threshold. The instantaneous bound is
    #: still clamped to at most twice the configured threshold.
    slack_banking: bool = False
    #: Selection objective among the candidates that satisfy the slowdown
    #: bound. ``"min-energy"`` is the paper's policy (lowest frequency =
    #: minimum energy). ``"min-edp"`` — an extension using the standard
    #: energy-delay-product metric of the energy-management literature —
    #: weighs predicted energy against predicted time, typically settling
    #: on a higher frequency than min-energy.
    objective: str = "min-energy"

    def __post_init__(self) -> None:
        if self.tolerable_slowdown < 0:
            raise ConfigError("tolerable_slowdown must be >= 0")
        if self.hold_off < 1:
            raise ConfigError("hold_off must be >= 1")
        if self.objective not in ("min-energy", "min-edp"):
            raise ConfigError(
                f"objective must be 'min-energy' or 'min-edp', "
                f"got {self.objective!r}"
            )


@dataclass
class ManagerDecision:
    """Diagnostic record of one quantum decision."""

    interval_index: int
    base_freq_ghz: float
    chosen_freq_ghz: float
    predicted_slowdown: float


def interval_epochs(
    record: IntervalRecord, trace: SimulationTrace
) -> List[Epoch]:
    """Epochs of one interval, including its boundary markers.

    The opening INTERVAL marker sits just before ``event_lo`` (except
    for the first interval, whose opener is the SPAWN sequence) and the
    closing marker right at ``event_hi``. Shared by the in-process
    governor and the serve replay client, so both feed the session the
    same epoch slices.
    """
    lo = max(0, record.event_lo - 1)
    hi = min(len(trace.events), record.event_hi + 1)
    return extract_epochs(trace.events[lo:hi])


class EnergyManagerSession:
    """Step-by-step quantum decision engine of the energy manager.

    Holds all cross-quantum state — hold-off countdown, slack-banking
    accumulators, the decision log — and consumes one
    ``(IntervalRecord, epochs)`` pair per :meth:`step` call. It never
    touches a trace, so a remote caller (the ``govern`` endpoint of
    :mod:`repro.serve`) can drive it from serialized interval payloads
    and obtain the byte-identical decision sequence of an in-process
    :class:`EnergyManager` run.
    """

    def __init__(
        self,
        spec: MachineSpec,
        config: Optional[ManagerConfig] = None,
        predictor: Optional[DepPredictor] = None,
        power_model: Optional["PowerModel"] = None,
        sweep: bool = True,
        candidates: Optional[Sequence[float]] = None,
        uncore_scale: float = 1.0,
    ) -> None:
        self.spec = spec
        self.config = config or ManagerConfig()
        self.predictor = predictor or DepPredictor(
            estimator=with_burst(crit_nonscaling), name="DEP+BURST"
        )
        #: Candidate set points, ascending. The default — the machine's
        #: full ladder with the spec's maximum as the reference point —
        #: is the paper's configuration; a cluster manager narrows this
        #: to its domain's node-trimmed ladder.
        if candidates is None:
            self._candidates = tuple(spec.frequencies())
            self._f_max = spec.max_freq_ghz
        else:
            self._candidates = tuple(
                sorted(check_frequency("candidate", c) for c in candidates)
            )
            if not self._candidates:
                raise ConfigError("candidates must be non-empty")
            self._f_max = self._candidates[-1]
        #: Uncore-frequency scale applied to non-scaling time in every
        #: prediction (reference_uncore / domain_uncore). The default 1.0
        #: is the homogeneous machine: ``x * 1.0 == x``, so every
        #: prediction stays the paper's exact expression.
        self.uncore_scale = check_frequency("uncore_scale", uncore_scale)
        #: Evaluate the whole candidate V/f table per quantum in one
        #: sweep-kernel call instead of one ``predict_epochs`` per set
        #: point. Decisions are bit-identical either way (the kernels
        #: are exact); ``sweep=False`` keeps the per-frequency loop for
        #: benchmarking and differential testing.
        self.sweep = sweep
        if self.config.objective == "min-edp" and power_model is None:
            from repro.energy.power import PowerModel

            power_model = PowerModel(spec)
        self.power_model = power_model
        self.decisions: List[ManagerDecision] = []
        self._since_change = 10 ** 9  # allow an immediate first decision
        # Slack-banking state: cumulative measured time and its estimate
        # at the highest frequency.
        self._elapsed_ns = 0.0
        self._elapsed_at_max_ns = 0.0

    def step(
        self, record: IntervalRecord, epochs: Sequence[Epoch]
    ) -> Optional[float]:
        """One quantum decision: the next frequency, or None (keep current)."""
        self._since_change += 1
        if self._since_change < self.config.hold_off:
            return None
        if record.busy_core_ns < self.config.min_busy_ns:
            return None
        if not epochs:
            return None
        base = record.freq_ghz
        f_max = self._f_max
        predictions = self._sweep_candidates(epochs, base) if self.sweep else None
        if predictions is not None:
            predicted_at_max = predictions[f_max]
        else:
            predicted_at_max = self._predict_scalar(epochs, base, f_max)
        if predicted_at_max <= 0:
            return None
        bound = self._interval_bound(record, predicted_at_max)
        if self.config.objective == "min-edp":
            chosen, chosen_slowdown = self._choose_min_edp(
                record, epochs, base, predicted_at_max, bound, predictions
            )
        else:
            chosen, chosen_slowdown = self._choose_min_energy(
                epochs, base, predicted_at_max, bound, predictions
            )
        self.decisions.append(
            ManagerDecision(
                interval_index=record.index,
                base_freq_ghz=base,
                chosen_freq_ghz=chosen,
                predicted_slowdown=chosen_slowdown,
            )
        )
        if chosen != base:
            self._since_change = 0
            return chosen
        return None

    def _predict_scalar(self, epochs, base, freq):
        """One scalar prediction honouring the session's uncore scale."""
        return predict_target(
            partial(self.predictor.predict_epochs, epochs, base),
            (freq, self.uncore_scale),
        )

    def _sweep_candidates(self, epochs, base):
        """All candidate predictions (plus the maximum frequency) from
        one sweep-kernel call over one epoch decomposition."""
        freqs = list(self._candidates)
        f_max = self._f_max
        if f_max not in freqs:
            freqs.append(f_max)
        targets = [(freq, self.uncore_scale) for freq in freqs]
        arrays = EpochArrays.from_epochs(epochs)
        values = sweep_predict_epochs(self.predictor, arrays, base, targets)
        return dict(zip(freqs, values))

    def _choose_min_energy(
        self, epochs, base, predicted_at_max, bound, predictions=None
    ):
        """The paper's policy: lowest frequency within the slowdown bound."""
        f_max = self._f_max
        for candidate in self._candidates:  # ascending
            if predictions is not None:
                predicted = predictions[candidate]
            else:
                predicted = self._predict_scalar(epochs, base, candidate)
            slowdown = predicted / predicted_at_max - 1.0
            if slowdown <= bound:
                return candidate, slowdown
        return f_max, 0.0

    def _choose_min_edp(
        self, record, epochs, base, predicted_at_max, bound, predictions=None
    ):
        """Extension: minimize predicted energy x delay within the bound.

        Energy at a candidate frequency is estimated with the power model
        over the interval's measured counters re-timed to the predicted
        duration — the same approximation the interval accounting uses.
        """
        f_max = self._f_max
        counters = record.aggregate()
        best = (f_max, 0.0)
        best_edp = None
        for candidate in self._candidates:
            if predictions is not None:
                predicted = predictions[candidate]
            else:
                predicted = self._predict_scalar(epochs, base, candidate)
            slowdown = predicted / predicted_at_max - 1.0
            if slowdown > bound:
                continue
            energy = self.power_model.interval_energy_j(
                counters, predicted, candidate
            )
            edp = energy * predicted
            if best_edp is None or edp < best_edp:
                best_edp = edp
                best = (candidate, slowdown)
        return best

    def _interval_bound(
        self, record: IntervalRecord, predicted_at_max: float
    ) -> float:
        """Per-interval slowdown bound (threshold, or banked variant)."""
        threshold = self.config.tolerable_slowdown
        if not self.config.slack_banking:
            return threshold
        self._elapsed_ns += record.duration_ns
        self._elapsed_at_max_ns += predicted_at_max
        if self._elapsed_at_max_ns <= 0:
            return threshold
        achieved = self._elapsed_ns / self._elapsed_at_max_ns - 1.0
        # Spend the unspent budget (or repay an overdraft) on the next
        # quantum; never allow more than 2x the configured bound at once.
        banked = threshold + (threshold - achieved)
        return min(max(banked, 0.0), 2.0 * threshold)


class EnergyManager(EnergyManagerSession):
    """DVFS governor: minimum-energy frequency within a performance bound.

    Instances are callables matching the simulator's governor interface;
    pass one to :func:`repro.sim.run.simulate_managed`. All decision
    state and logic live in the :class:`EnergyManagerSession` base; this
    class only adds the trace coupling (slicing each interval's epochs
    out of the live trace).
    """

    def __call__(
        self, record: IntervalRecord, trace: SimulationTrace
    ) -> Optional[float]:
        """Governor hook: return the next quantum's frequency (or None)."""
        return self.step(record, interval_epochs(record, trace))


class ClusterManager:
    """Per-cluster energy management: one decision session per domain.

    Each cluster of a :class:`~repro.arch.clusters.ClusterTopology` gets
    its own :class:`EnergyManagerSession` configured with the cluster's
    *node-trimmed* candidate ladder (its tech node's Vth floor removes
    unreachable low set points) and its uncore scale (reference uncore
    over the cluster's uncore clock). Every quantum, each session sees
    the interval's epochs and chooses within its own domain.

    Instances are simulator governors. A single-domain topology — one
    cluster spanning the machine's full ladder at 22 nm ITRS and the
    reference uncore — delegates to a plain chip-wide session and
    returns scalar frequencies, reproducing the legacy
    :class:`EnergyManager` byte-for-byte (the pinned differential
    configuration). Heterogeneous topologies return per-core frequency
    dicts, driving the simulator's per-core DVFS path
    (``per_core_dvfs=True``).
    """

    def __init__(
        self,
        topology: "ClusterTopology",
        config: Optional[ManagerConfig] = None,
        predictor: Optional[DepPredictor] = None,
        sweep: bool = True,
    ) -> None:
        self.topology = topology
        self.spec = topology.spec
        self.config = config or ManagerConfig()
        self._legacy: Optional[EnergyManagerSession] = None
        self._sessions: Dict[str, EnergyManagerSession] = {}
        self._current: Dict[str, float] = {}
        if topology.is_single_domain and self._is_reference(
            topology.clusters[0]
        ):
            # The pinned legacy configuration: one session, default
            # candidates, scale 1.0 — the byte-identical twin.
            self._legacy = EnergyManagerSession(
                self.spec, self.config, predictor, sweep=sweep
            )
            return
        for cluster in topology.clusters:
            candidates = cluster.supported_frequencies()
            self._sessions[cluster.name] = EnergyManagerSession(
                self.spec,
                self.config,
                predictor,
                sweep=sweep,
                candidates=candidates,
                uncore_scale=cluster.uncore_scale(self.spec),
            )
            self._current[cluster.name] = max(candidates)

    def _is_reference(self, cluster) -> bool:
        """True when the cluster adds nothing over the legacy machine."""
        from repro.energy.vftable import get_tech_node

        node = get_tech_node(cluster.node_nm, cluster.node_scaling)
        return (
            node.vdd_scale == 1.0
            and cluster.uncore_freq_ghz == self.spec.uncore_freq_ghz
            and cluster.supported_frequencies() == self.spec.frequencies()
        )

    @property
    def decisions(self) -> List[ManagerDecision]:
        """All sessions' decision logs, interleaved by interval index."""
        if self._legacy is not None:
            return self._legacy.decisions
        merged: List[ManagerDecision] = []
        for name in sorted(self._sessions):
            merged.extend(self._sessions[name].decisions)
        merged.sort(key=lambda d: d.interval_index)
        return merged

    @property
    def cluster_decisions(self) -> Dict[str, List[ManagerDecision]]:
        """Decision log per cluster name."""
        if self._legacy is not None:
            return {self.topology.clusters[0].name: self._legacy.decisions}
        return {
            name: session.decisions
            for name, session in self._sessions.items()
        }

    def __call__(self, record: IntervalRecord, trace: SimulationTrace):
        """Governor hook: scalar frequency (single domain) or core dict."""
        epochs = interval_epochs(record, trace)
        if self._legacy is not None:
            return self._legacy.step(record, epochs)
        changes: Dict[int, float] = {}
        for cluster in self.topology.clusters:
            session = self._sessions[cluster.name]
            # The session predicts relative to the cluster's own current
            # set point, not the chip-wide interval frequency.
            base = self._current[cluster.name]
            view = (
                record
                if record.freq_ghz == base
                else replace(record, freq_ghz=base)
            )
            chosen = session.step(view, epochs)
            if chosen is not None and chosen != base:
                self._current[cluster.name] = chosen
                for core in cluster.cores:
                    changes[core] = chosen
        return changes or None
