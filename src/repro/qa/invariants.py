"""The invariant registry: the paper's structural claims as named checks.

Each :class:`Invariant` is a named predicate over a
:class:`~repro.qa.context.CaseContext`; evaluating one returns a list of
human-readable violations (empty = holds). The registry promotes the
ad-hoc checks of :mod:`repro.sim.checks` and adds the metamorphic
properties the predictors and the governor must satisfy on *any* valid
workload (PAPER.md §III–IV):

* physical trace invariants — epoch tiling/conservation, core capacity,
  counter monotonicity, GC balance;
* cross-frequency conservation — logical work is frequency-invariant,
  speedups stay in the physically possible band;
* self-prediction identity — predicting at the base frequency
  reproduces the measured time for every predictor;
* monotone frequency scaling — predicted time never increases with the
  target frequency;
* BURST dominance — adding store-burst time to the non-scaling
  component can only raise predictions above the base frequency and
  lower them below it, never the reverse;
* governor threshold respect — every decision's predicted slowdown
  stays within the manager's (possibly banked) bound, on a valid set
  point.

The differential invariants of :mod:`repro.qa.differential` register
here too, so ``repro-qa list-invariants`` shows the whole gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.common.errors import ConfigError
from repro.core.predictors import make_predictor, predictor_names
from repro.qa.context import CaseContext
from repro.sim import checks

#: Relative tolerance of the identity check (matches the pinned
#: integration tests: boundary accounting makes identity near-, not
#: bit-exact for lifetime-based predictors).
IDENTITY_REL_TOL = 0.02

#: Relative slack of the ordering checks (monotonicity, dominance):
#: generous against accumulation noise, far below any real regression.
_ORDER_REL_EPS = 1e-9

#: Absolute slack (ns) on threshold comparisons.
_ABS_EPS = 1e-6


@dataclass(frozen=True)
class Invariant:
    """One named structural property of the system."""

    name: str
    description: str
    check: Callable[[CaseContext], List[str]]

    def evaluate(self, context: CaseContext) -> List[str]:
        """Violations of this invariant on ``context`` (empty = holds)."""
        return self.check(context)


_REGISTRY: Dict[str, Invariant] = {}


def register(name: str, description: str):
    """Decorator: add a check function to the registry under ``name``."""

    def wrap(check: Callable[[CaseContext], List[str]]) -> Invariant:
        if name in _REGISTRY:
            raise ConfigError(f"invariant {name!r} registered twice")
        invariant = Invariant(name=name, description=description, check=check)
        _REGISTRY[name] = invariant
        return invariant

    return wrap


def invariant_names() -> List[str]:
    """All registered invariant names, in registration order."""
    _ensure_differentials()
    return list(_REGISTRY)


def get_invariant(name: str) -> Invariant:
    """Registry lookup (:class:`ConfigError` with choices if unknown)."""
    _ensure_differentials()
    invariant = _REGISTRY.get(name)
    if invariant is None:
        raise ConfigError(
            f"unknown invariant {name!r}; expected one of {invariant_names()}"
        )
    return invariant


def _ensure_differentials() -> None:
    # The differential invariants live in their own module; importing it
    # here (not at module top) avoids a cycle while keeping the registry
    # complete for every consumer.
    import repro.qa.differential  # noqa: F401


# ----------------------------------------------------------------------
# Physical trace invariants (promoted from repro.sim.checks)
# ----------------------------------------------------------------------


@register(
    "epoch-conservation",
    "synchronization epochs tile the run: no gaps, durations sum to the "
    "trace's total time",
)
def _epoch_conservation(context: CaseContext) -> List[str]:
    return checks.check_epoch_tiling(context.result().trace)


@register(
    "core-capacity",
    "no interval or epoch is busier than n_cores x wall time",
)
def _core_capacity(context: CaseContext) -> List[str]:
    return checks.check_capacity(context.result().trace, context.spec.n_cores)


@register(
    "counter-monotonicity",
    "per-thread cumulative counters never decrease across events",
)
def _counter_monotonicity(context: CaseContext) -> List[str]:
    return checks.check_counter_monotonicity(context.result().trace)


@register(
    "gc-balance",
    "GC_START/GC_END markers alternate and sum to the recorded pause time",
)
def _gc_balance(context: CaseContext) -> List[str]:
    return checks.check_gc_balance(context.result().trace)


@register(
    "cross-frequency-conservation",
    "re-simulating at another frequency retires the same application "
    "instructions and collections; the speedup stays within [1, f_hi/f_lo]",
)
def _cross_frequency(context: CaseContext) -> List[str]:
    case = context.case
    violations: List[str] = []
    lo = context.result(case.base_freq_ghz)
    hi = context.result(case.high_freq_ghz)
    # Only application threads retire frequency-invariant work: GC/JIT
    # service threads do timing-dependent amounts (heap state at each
    # collection shifts with frequency), so they are excluded here.
    counters_lo = lo.trace.final_counters()
    counters_hi = hi.trace.final_counters()
    insns_lo = sum(counters_lo[tid].insns for tid in lo.trace.app_tids())
    insns_hi = sum(counters_hi[tid].insns for tid in hi.trace.app_tids())
    if abs(insns_lo - insns_hi) > 0.001 * max(insns_lo, insns_hi, 1):
        violations.append(
            f"application instruction counts vary with frequency: "
            f"{insns_lo} at {case.base_freq_ghz} GHz vs "
            f"{insns_hi} at {case.high_freq_ghz} GHz"
        )
    # The GC trigger is byte-based, but allocation *interleaving* shifts
    # with frequency (DRAM stalls do not scale), so the nursery slack at
    # each overflow differs and a boundary collection can slide in or
    # out of the run — one cycle of drift is legitimate, more is a bug.
    cycle_drift = abs(lo.trace.gc_cycles - hi.trace.gc_cycles)
    if cycle_drift > 1:
        violations.append(
            f"GC counts vary with frequency beyond one boundary "
            f"collection: {lo.trace.gc_cycles} vs {hi.trace.gc_cycles}"
        )
    if case.high_freq_ghz > case.base_freq_ghz:
        if cycle_drift == 0:
            speedup = lo.total_ns / hi.total_ns
            what = "speedup"
        else:
            # An extra collection on one side wrecks the raw band;
            # mutator time (total minus stop-the-world pauses) still
            # has to respect the physics.
            speedup = (lo.total_ns - lo.trace.gc_time_ns) / (
                hi.total_ns - hi.trace.gc_time_ns
            )
            what = "mutator speedup"
        ceiling = case.high_freq_ghz / case.base_freq_ghz
        if not 1.0 - 1e-6 <= speedup <= ceiling + 1e-6:
            violations.append(
                f"{what} {speedup:.4f} from {case.base_freq_ghz} to "
                f"{case.high_freq_ghz} GHz outside [1, {ceiling:.3f}]"
            )
    return violations


# ----------------------------------------------------------------------
# Predictor invariants (metamorphic properties)
# ----------------------------------------------------------------------


@register(
    "self-prediction-identity",
    "target == base frequency => predicted time == measured time, for "
    "every predictor",
)
def _self_prediction(context: CaseContext) -> List[str]:
    violations: List[str] = []
    result = context.result()
    base = context.case.base_freq_ghz
    for name in predictor_names():
        predicted = make_predictor(name).predict_total_ns(result.trace, base)
        error = abs(predicted - result.total_ns) / max(result.total_ns, 1.0)
        if error > IDENTITY_REL_TOL:
            violations.append(
                f"{name}: predicting {base} GHz from {base} GHz gives "
                f"{predicted:.1f} ns vs measured {result.total_ns:.1f} ns "
                f"({error:.2%} off)"
            )
    return violations


@register(
    "monotone-frequency-scaling",
    "predicted time never increases with the target frequency (the "
    "scaling component is frequency-proportional, the rest fixed)",
)
def _monotone_scaling(context: CaseContext) -> List[str]:
    violations: List[str] = []
    trace = context.result().trace
    base = context.case.base_freq_ghz
    ladder = context.target_ladder()
    for name in predictor_names():
        predictor = make_predictor(name)
        predictions = [
            predictor.predict_total_ns(trace, target, base_freq_ghz=base)
            for target in ladder
        ]
        for (f_lo, p_lo), (f_hi, p_hi) in zip(
            zip(ladder, predictions), zip(ladder[1:], predictions[1:])
        ):
            if p_hi > p_lo * (1.0 + _ORDER_REL_EPS) + _ABS_EPS:
                violations.append(
                    f"{name}: predicted {p_hi:.1f} ns at {f_hi} GHz exceeds "
                    f"{p_lo:.1f} ns at {f_lo} GHz"
                )
        if any(p <= 0 for p in predictions):
            violations.append(f"{name}: non-positive prediction in {predictions}")
    return violations


@register(
    "burst-dominance",
    "+BURST moves store-queue-full time into the non-scaling component: "
    "vs. the plain variant it predicts >= above the base frequency and "
    "<= below it (BURST non-negativity)",
)
def _burst_dominance(context: CaseContext) -> List[str]:
    violations: List[str] = []
    trace = context.result().trace
    base = context.case.base_freq_ghz
    for target in context.target_ladder():
        for family in ("M+CRIT", "COOP", "DEP"):
            plain = make_predictor(family).predict_total_ns(
                trace, target, base_freq_ghz=base
            )
            burst = make_predictor(f"{family}+BURST").predict_total_ns(
                trace, target, base_freq_ghz=base
            )
            slack = plain * _ORDER_REL_EPS + _ABS_EPS
            if target >= base and burst < plain - slack:
                violations.append(
                    f"{family}+BURST predicts {burst:.1f} ns < plain "
                    f"{plain:.1f} ns at {target} GHz (>= base {base} GHz)"
                )
            if target <= base and burst > plain + slack:
                violations.append(
                    f"{family}+BURST predicts {burst:.1f} ns > plain "
                    f"{plain:.1f} ns at {target} GHz (<= base {base} GHz)"
                )
    return violations


# ----------------------------------------------------------------------
# Governor invariants
# ----------------------------------------------------------------------


@register(
    "governor-threshold-respect",
    "every manager decision picks a valid set point whose predicted "
    "slowdown stays within the (possibly banked) tolerable bound",
)
def _governor_threshold(context: CaseContext) -> List[str]:
    violations: List[str] = []
    config = context.case.manager
    _, decisions = context.managed()
    set_points = set(context.spec.frequencies())
    # Slack banking widens the instantaneous bound, but never beyond 2x
    # the configured threshold (the manager's own clamp).
    bound = config.tolerable_slowdown * (2.0 if config.slack_banking else 1.0)
    for decision in decisions:
        if decision.chosen_freq_ghz not in set_points:
            violations.append(
                f"decision {decision.interval_index} chose "
                f"{decision.chosen_freq_ghz} GHz, not a machine set point"
            )
        if decision.predicted_slowdown > bound + _ABS_EPS:
            violations.append(
                f"decision {decision.interval_index} accepted predicted "
                f"slowdown {decision.predicted_slowdown:.4f} over the "
                f"bound {bound:.4f}"
            )
        if decision.predicted_slowdown < -_ABS_EPS:
            violations.append(
                f"decision {decision.interval_index} reports negative "
                f"slowdown {decision.predicted_slowdown:.4f}: prediction "
                f"not monotone vs. the maximum frequency"
            )
    return violations


# ----------------------------------------------------------------------
# Fleet invariants
# ----------------------------------------------------------------------


@register(
    "fleet-policy-dominance",
    "every prediction-driven fleet policy respects the fleet power cap "
    "and never spends more aggregate energy than the all-max-frequency "
    "baseline at equal-or-worse SLA",
)
def _fleet_policy_dominance(context: CaseContext) -> List[str]:
    # The fleet tier imports the sweep/batch stack; keep it out of this
    # module's import time the same way the differentials stay out.
    from repro.fleet.dominance import case_dominance_violations

    return case_dominance_violations(context)


@register(
    "fleet-store-identity",
    "fleet reports are byte-identical on the determinism view whether "
    "profiles are injected, simulated fresh into the persistent profile "
    "store, or rehydrated from it",
)
def _fleet_store_identity(context: CaseContext) -> List[str]:
    from repro.fleet.profile_cache import case_store_identity_violations

    return case_store_identity_violations(context)
