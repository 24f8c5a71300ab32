"""``repro-trace`` / ``repro-sim``: simulate, archive, inspect, verify.

Subcommands::

    repro-trace simulate xalan --freq 1.0 --scale 0.2 --out xalan-1g.json.gz
    repro-trace stats xalan-1g.json.gz
    repro-trace predict xalan-1g.json.gz --target 4.0 --model DEP+BURST
    repro-trace predict xalan-1g.json.gz --target 4.0 --all-models
    repro-trace verify xalan-1g.json.gz

The simulate subcommand runs a registered benchmark model at a fixed
frequency and archives the trace; stats prints the analysis summary
(trace statistics + criticality stack); predict runs any predictor over an
archived trace — no re-simulation needed; verify runs the
physical-invariant checks on an archived trace. ``--profile [PATH]``
(or ``REPRO_PROFILE=1``) wraps any subcommand in cProfile and writes a
``.pstats`` dump. A missing, unreadable, foreign-version or malformed
archive prints ``error: ...`` and exits 2.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.criticality import criticality_stack
from repro.analysis.stats import trace_stats
from repro.common.errors import ReproError
from repro.common.profiling import UNSET, resolve_profile_path, run_maybe_profiled
from repro.common.tables import format_table
from repro.core.predictors import make_predictor, predictor_names
from repro.sim.run import simulate
from repro.sim.serialize import load_trace, save_trace
from repro.workloads.registry import benchmark_names, get_benchmark


def _cmd_simulate(args: argparse.Namespace) -> int:
    bundle = get_benchmark(args.benchmark, scale=args.scale)
    print(
        f"simulating {args.benchmark} at {args.freq} GHz "
        f"(scale {args.scale}) ..."
    )
    result = simulate(
        bundle.program, args.freq, spec=bundle.spec,
        jvm_config=bundle.jvm_config, gc_model=bundle.gc_model,
    )
    save_trace(result.trace, args.out)
    print(
        f"{result.total_ms:.1f} ms simulated "
        f"(GC {result.gc_fraction:.0%}, {len(result.trace.events)} events) "
        f"-> {args.out}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    stats = trace_stats(trace)
    print(format_table(["metric", "value"], stats.summary_rows(),
                       title=f"Trace statistics ({args.trace})"))
    stack = criticality_stack(trace)
    rows = [
        (trace.threads[tid].name, f"{share:.1%}")
        for tid, share in stack.ranked()
        if share >= 0.005
    ]
    print()
    print(format_table(["thread", "criticality"], rows,
                       title="Criticality stack"))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    models = predictor_names() if args.all_models else [args.model]
    rows = []
    for name in models:
        predictor = make_predictor(name)
        predicted = predictor.predict_total_ns(trace, args.target)
        speedup = trace.total_ns / predicted if predicted else float("inf")
        rows.append((name, f"{predicted / 1e6:.2f}", f"{speedup:.2f}x"))
    print(
        format_table(
            ["model", "predicted (ms)", "speedup vs base"],
            rows,
            title=(
                f"{trace.program_name}: {trace.base_freq_ghz:g} GHz "
                f"({trace.total_ns / 1e6:.2f} ms) -> {args.target:g} GHz"
            ),
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.sim.checks import check_trace

    trace = load_trace(args.trace)
    violations = check_trace(trace)
    if violations:
        print(f"{len(violations)} violation(s):")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(
        f"ok: {len(trace.events)} events, {trace.gc_cycles} GC cycles, "
        "all invariants hold"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Simulate, archive, inspect and predict from traces.",
    )
    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument(
        "--profile", nargs="?", default=UNSET, metavar="PSTATS",
        help="profile the run with cProfile; optional dump path "
             "(default repro-sim.pstats; REPRO_PROFILE=1 also enables)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[profiled],
                         help="run a benchmark, archive the trace")
    sim.add_argument("benchmark", choices=benchmark_names())
    sim.add_argument("--freq", type=float, default=1.0, help="GHz (set point)")
    sim.add_argument("--scale", type=float, default=0.2,
                     help="run-length scale (1.0 = Table I durations)")
    sim.add_argument("--out", required=True, help="output path (.json[.gz])")
    sim.set_defaults(func=_cmd_simulate)

    stats = sub.add_parser("stats", parents=[profiled],
                          help="print trace statistics")
    stats.add_argument("trace", help="archived trace path")
    stats.set_defaults(func=_cmd_stats)

    predict = sub.add_parser("predict", parents=[profiled],
                            help="predict from an archived trace")
    predict.add_argument("trace", help="archived trace path")
    predict.add_argument("--target", type=float, required=True, help="GHz")
    predict.add_argument("--model", default="DEP+BURST",
                         help=f"one of {predictor_names()}")
    predict.add_argument("--all-models", action="store_true",
                         help="evaluate every predictor")
    predict.set_defaults(func=_cmd_predict)

    verify = sub.add_parser(
        "verify", parents=[profiled],
        help="run the physical-invariant checks on a trace",
    )
    verify.add_argument("trace", help="archived trace path")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    profile_path = resolve_profile_path(args.profile, "repro-sim.pstats")

    def invoke() -> int:
        try:
            return args.func(args)
        except ReproError as exc:
            print(f"error: {exc}")
            return 2

    return run_maybe_profiled(invoke, profile_path)


if __name__ == "__main__":
    raise SystemExit(main())
