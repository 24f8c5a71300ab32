"""QA orchestration: fuzz, evaluate, shrink, dump, report.

:func:`run_qa` is the engine behind ``repro-qa run``: it walks a seed
range, builds each fuzz case, evaluates the selected invariants over a
shared :class:`~repro.qa.context.CaseContext` (one live serve harness is
reused across all cases), and on the first failure shrinks the workload
and writes a replayable artifact. A wall-clock budget turns the run into
a time-boxed smoke suitable for CI: the run stops *between* cases once
the budget is spent and reports how far it got.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.qa.artifacts import Failure, ReproArtifact, save_artifact
from repro.qa.context import CaseContext
from repro.qa.differential import SERVE_SKIPPED, ServeHarness
from repro.qa.fuzzer import FuzzCase, fuzz_case
from repro.qa.invariants import Invariant, get_invariant, invariant_names
from repro.qa.shrinker import shrink, shrink_summary

#: Default artifact directory of CLI runs.
DEFAULT_ARTIFACT_DIR = "qa-artifacts"


@dataclass
class CaseOutcome:
    """What one fuzz case did under the invariant set."""

    seed: int
    failures: List[Failure] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class QaReport:
    """The result of one QA run."""

    outcomes: List[CaseOutcome] = field(default_factory=list)
    invariants: List[str] = field(default_factory=list)
    artifact: Optional[ReproArtifact] = None
    artifact_path: Optional[Path] = None
    elapsed_s: float = 0.0
    #: True when the time budget stopped the run before the seed range ended.
    time_boxed: bool = False
    #: True when the serve differentials ran against a live server.
    serve_live: bool = False

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def cases_run(self) -> int:
        return len(self.outcomes)


def evaluate_case(
    case: FuzzCase,
    invariants: Sequence[Invariant],
    spec: Optional[MachineSpec] = None,
    serve_client=None,
) -> Tuple[List[Failure], List[str]]:
    """Evaluate ``invariants`` on ``case``; return (failures, skipped)."""
    context = CaseContext(case, spec=spec, serve_client=serve_client)
    failures: List[Failure] = []
    skipped: List[str] = []
    for invariant in invariants:
        violations = invariant.evaluate(context)
        if violations == [SERVE_SKIPPED]:
            skipped.append(invariant.name)
        elif violations:
            failures.append(
                Failure(invariant=invariant.name, violations=violations)
            )
    return failures, skipped


def resolve_invariants(names: Optional[Sequence[str]]) -> List[Invariant]:
    """Selection -> Invariant objects (all registered when None)."""
    selected = list(names) if names else invariant_names()
    return [get_invariant(name) for name in selected]


def run_qa(
    seeds: Sequence[int],
    invariants: Optional[Sequence[str]] = None,
    time_budget_s: Optional[float] = None,
    artifact_dir: Optional[str] = DEFAULT_ARTIFACT_DIR,
    spec: Optional[MachineSpec] = None,
    serve: bool = True,
    shrink_failures: bool = True,
    stop_on_failure: bool = True,
    log: Callable[[str], None] = lambda line: None,
) -> QaReport:
    """Fuzz ``seeds`` through the invariant gate; shrink + dump failures.

    ``serve=False`` (or a platform where the server cannot start) runs
    without the serve differentials — they are reported per-case under
    ``skipped``, never silently passed.
    """
    resolved = resolve_invariants(invariants)
    spec = spec or haswell_i7_4770k()
    report = QaReport(invariants=[inv.name for inv in resolved])
    started = time.perf_counter()
    harness: Optional[ServeHarness] = None
    needs_serve = serve and any(
        inv.name.startswith("diff-serve") for inv in resolved
    )
    try:
        if needs_serve:
            try:
                harness = ServeHarness()
                report.serve_live = True
            except Exception as exc:  # no loop/socket support on this box
                log(f"serve harness unavailable ({exc}); serve diffs skipped")
        client = harness.client if harness is not None else None
        for seed in seeds:
            if (
                time_budget_s is not None
                and time.perf_counter() - started >= time_budget_s
            ):
                report.time_boxed = True
                log(
                    f"time budget ({time_budget_s:.0f}s) spent after "
                    f"{report.cases_run} case(s); stopping"
                )
                break
            case = fuzz_case(seed, spec=spec)
            case_started = time.perf_counter()
            failures, skipped = evaluate_case(
                case, resolved, spec=spec, serve_client=client
            )
            outcome = CaseOutcome(
                seed=seed,
                failures=failures,
                skipped=skipped,
                wall_s=time.perf_counter() - case_started,
            )
            report.outcomes.append(outcome)
            if outcome.ok:
                log(f"seed {seed}: ok ({outcome.wall_s:.2f}s)")
                continue
            names = [failure.invariant for failure in failures]
            log(f"seed {seed}: FAIL {names}")
            artifact = _shrink_and_record(
                case, failures, resolved, spec, client, shrink_failures, log
            )
            report.artifact = artifact
            if artifact_dir is not None:
                report.artifact_path = save_artifact(artifact, artifact_dir)
                log(f"replayable artifact: {report.artifact_path}")
            if stop_on_failure:
                break
    finally:
        if harness is not None:
            harness.close()
    report.elapsed_s = time.perf_counter() - started
    return report


def _shrink_and_record(
    case: FuzzCase,
    failures: List[Failure],
    invariants: Sequence[Invariant],
    spec: MachineSpec,
    client,
    shrink_failures: bool,
    log: Callable[[str], None],
) -> ReproArtifact:
    """Minimize a failing case and package it as an artifact."""
    failing_names = [failure.invariant for failure in failures]
    shrunk = case
    if shrink_failures:

        def still_failing(candidate: FuzzCase) -> Set[str]:
            candidate_failures, _ = evaluate_case(
                candidate, invariants, spec=spec, serve_client=client
            )
            return {failure.invariant for failure in candidate_failures}

        shrunk = shrink(case, failing_names, still_failing)
    # Record the violations of the *shrunk* case: that is what replay
    # re-evaluates, and shrinking may have narrowed the failure set.
    final_failures, _ = evaluate_case(
        shrunk, invariants, spec=spec, serve_client=client
    )
    relevant = [
        failure for failure in final_failures if failure.invariant in failing_names
    ] or final_failures
    delta = shrink_summary(case, shrunk)
    if delta:
        log("shrunk: " + "; ".join(delta))
    return ReproArtifact(
        case=shrunk,
        failures=relevant,
        original=case if shrunk is not case else None,
        shrink_delta=delta,
    )


def replay_case(
    case: FuzzCase,
    invariants: Optional[Sequence[str]] = None,
    spec: Optional[MachineSpec] = None,
    serve: bool = True,
) -> Tuple[List[Failure], List[str]]:
    """Re-evaluate a (loaded) case; return (failures, skipped)."""
    resolved = resolve_invariants(invariants)
    needs_serve = serve and any(
        inv.name.startswith("diff-serve") for inv in resolved
    )
    if not needs_serve:
        return evaluate_case(case, resolved, spec=spec)
    try:
        with ServeHarness() as harness:
            return evaluate_case(
                case, resolved, spec=spec, serve_client=harness.client
            )
    except Exception:
        return evaluate_case(case, resolved, spec=spec)
