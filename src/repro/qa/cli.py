"""``repro-qa``: the generative QA gate from the command line.

Subcommands::

    repro-qa run --seeds 50                    # fuzz 50 seeds through the gate
    repro-qa run --seeds 200 --time-budget 120 # CI smoke: stop at the box
    repro-qa run --invariants diff-engine-trace,self-prediction-identity
    repro-qa replay qa-artifacts/qa-seed-17.json
    repro-qa promote qa-artifacts/qa-seed-17.json --out-dir fleet-corpus
    repro-qa list-invariants

``run`` exits non-zero on the first invariant failure, after shrinking
the workload and writing a replayable artifact (seed + JSON program).
``replay`` re-evaluates an artifact's shrunk case and reports whether
the recorded failure still reproduces. ``promote`` converts an
artifact's case into a ``repro.fleet`` tenant spec, so fleets drawn
with ``repro-fleet --corpus DIR`` include the shapes fuzzing found
interesting.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.common.errors import ReproError
from repro.common.tables import format_table
from repro.qa.artifacts import load_artifact
from repro.qa.invariants import get_invariant, invariant_names
from repro.qa.runner import DEFAULT_ARTIFACT_DIR, replay_case, run_qa


def _parse_invariants(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    for name in names:  # fail fast with the valid choices spelled out
        get_invariant(name)
    return names


def _cmd_run(args: argparse.Namespace) -> int:
    seeds = range(args.start_seed, args.start_seed + args.seeds)
    report = run_qa(
        seeds,
        invariants=_parse_invariants(args.invariants),
        time_budget_s=args.time_budget,
        artifact_dir=args.artifacts,
        serve=not args.no_serve,
        shrink_failures=not args.no_shrink,
        log=print,
    )
    box = " (time-boxed)" if report.time_boxed else ""
    serve_note = "live" if report.serve_live else "skipped"
    print(
        f"{report.cases_run} case(s) in {report.elapsed_s:.1f}s{box}, "
        f"{len(report.invariants)} invariant(s), serve diffs {serve_note}"
    )
    if report.ok:
        print("all invariants hold")
        return 0
    for outcome in report.outcomes:
        for failure in outcome.failures:
            print(f"seed {outcome.seed} broke {failure.invariant}:")
            for violation in failure.violations:
                print(f"  - {violation}")
    if report.artifact_path is not None:
        print(f"replay with: repro-qa replay {report.artifact_path}")
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.artifact)
    names = artifact.failing_names()
    print(
        f"replaying seed {artifact.seed} against "
        f"{names if not args.all_invariants else 'all invariants'}"
    )
    if artifact.shrink_delta:
        print("shrink delta: " + "; ".join(artifact.shrink_delta))
    failures, skipped = replay_case(
        artifact.case,
        invariants=None if args.all_invariants else names,
        serve=not args.no_serve,
    )
    for name in skipped:
        print(f"skipped {name} (no live server)")
    if not failures:
        print("no longer fails: the recorded violation is fixed")
        return 0
    for failure in failures:
        print(f"still failing {failure.invariant}:")
        for violation in failure.violations:
            print(f"  - {violation}")
    return 1


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.qa.promote import promote_artifact

    path = promote_artifact(args.artifact, out_dir=args.out_dir,
                            name=args.name)
    print(f"tenant spec written to {path}")
    print(f"draw fleets with: repro-fleet run --corpus {args.out_dir}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        (name, get_invariant(name).description) for name in invariant_names()
    ]
    print(format_table(["invariant", "checks that"], rows,
                       title="Registered QA invariants"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-qa`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-qa",
        description="Property-based fuzzing + differential QA gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fuzz seeds through the invariant gate")
    run.add_argument("--seeds", type=int, default=25,
                     help="number of fuzz seeds to evaluate (default 25)")
    run.add_argument("--start-seed", type=int, default=0,
                     help="first seed of the range (default 0)")
    run.add_argument("--time-budget", type=float, default=None, metavar="S",
                     help="stop starting new cases after S seconds")
    run.add_argument("--artifacts", default=DEFAULT_ARTIFACT_DIR,
                     help=f"artifact directory (default {DEFAULT_ARTIFACT_DIR})")
    run.add_argument("--invariants", default=None,
                     help="comma-separated subset (default: all registered)")
    run.add_argument("--no-serve", action="store_true",
                     help="skip the serve differentials (no server needed)")
    run.add_argument("--no-shrink", action="store_true",
                     help="dump the failing case without minimizing it")
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser("replay", help="re-evaluate a failure artifact")
    replay.add_argument("artifact", help="path written by a failing run")
    replay.add_argument("--all-invariants", action="store_true",
                        help="evaluate every invariant, not just the "
                             "recorded failures")
    replay.add_argument("--no-serve", action="store_true",
                        help="skip the serve differentials")
    replay.set_defaults(func=_cmd_replay)

    promote = sub.add_parser(
        "promote", help="turn a failure artifact into a fleet tenant spec"
    )
    promote.add_argument("artifact", help="path written by a failing run")
    promote.add_argument("--out-dir", default="fleet-corpus",
                         help="corpus directory to write into "
                              "(default fleet-corpus)")
    promote.add_argument("--name", default=None,
                         help="tenant name (default: derived from the seed)")
    promote.set_defaults(func=_cmd_promote)

    listing = sub.add_parser("list-invariants",
                             help="print the invariant registry")
    listing.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
