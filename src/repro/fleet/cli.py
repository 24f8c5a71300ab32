"""``repro-fleet``: datacenter-scale fleet simulation from the command line.

Subcommands::

    repro-fleet run --tenants 1000 --seed 42           # one policy, dashboard
    repro-fleet run --tenants 200 --policy tail-allocator --out fleet.json
    repro-fleet run --tenants 64 --serve-workers 2     # + wire validation
    repro-fleet report fleet.json                      # re-render a saved run
    repro-fleet compare --tenants 200 --seed 7         # all policies, one table
    repro-fleet grid --tenants 512 --out grid.json     # policy x cap figure
    repro-fleet cache stats                            # the profile store
    repro-fleet cache clear

``run`` is deterministic from ``--seed``: the same invocation writes a
byte-identical ``--out`` file every time, cold or warm. Simulated
tenant profiles persist in a content-addressed store
(``~/.cache/repro/fleet-profiles``, override with ``REPRO_CACHE_DIR``
or ``--cache-dir``; ``--no-cache`` opts out) keyed by everything that
determines the trace, so repeat runs — and every cell of a ``grid`` or
``compare`` — skip the simulation. ``run`` ends with the store's
``cache stats`` summary, whose session line counts that run's hits,
misses, stores and rejected (damaged or stale) entries. ``compare``
runs several policies over the *same* drawn fleet (profiles built once
and shared) and reports each against the per-tenant static oracle.
``--profile`` wraps any run in cProfile and dumps pstats.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.common.errors import ReproError
from repro.common.profiling import UNSET, resolve_profile_path, run_maybe_profiled
from repro.common.tables import format_table
from repro.fleet.arrivals import ArrivalConfig
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.policy import policy_names
from repro.fleet.profile_cache import (
    ProfileCache,
    default_profile_cache_dir,
    describe,
)
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import load_report, render_report, save_report


def _profile_cache(args: argparse.Namespace) -> Optional[ProfileCache]:
    if getattr(args, "no_cache", False):
        return None
    return ProfileCache(args.cache_dir or default_profile_cache_dir())


def _store(args: argparse.Namespace) -> ProfileStore:
    return ProfileStore(cache=_profile_cache(args))


def _fleet_config(args: argparse.Namespace, policy: str) -> FleetConfig:
    return FleetConfig(
        tenants=args.tenants,
        seed=args.seed,
        policy=policy,
        power_cap_w=args.power_cap,
        arrivals=ArrivalConfig(rate_per_s=args.rate),
        batch=not args.no_batch,
        corpus_dirs=tuple(args.corpus or ()),
        serve_workers=getattr(args, "serve_workers", 0),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    store = _store(args)
    report = run_fleet(_fleet_config(args, args.policy), store=store)
    print(render_report(report))
    if args.out:
        path = save_report(report, args.out)
        print(f"\nreport written to {path}")
    if store.cache is not None:
        # Which stored profiles served this run, and which were rejected.
        print(f"\n{describe(store.cache)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(load_report(args.report)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    policies = (
        [name.strip() for name in args.policies.split(",") if name.strip()]
        if args.policies
        else policy_names()
    )
    store = _store(args)
    rows: List[tuple] = []
    oracle = None
    for policy in policies:
        report = run_fleet(_fleet_config(args, policy), store=store)
        aggregate = report.aggregate
        oracle = report.oracle
        rows.append(
            (
                policy,
                f"{aggregate['energy_j']:.3f}",
                f"{aggregate['energy_saving_vs_max']:.1%}",
                f"{aggregate['mean_slowdown']:.3%}",
                f"{aggregate['p99_slowdown']:.3%}",
                f"{aggregate['sla_miss_rate']:.2%}",
                f"{aggregate['peak_power_w']:.0f}",
            )
        )
    if oracle is not None:
        rows.append(
            (
                "static-oracle (per-tenant)",
                f"{oracle['energy_j']:.3f}",
                "",
                f"{oracle['mean_slowdown']:.3%}",
                "",
                f"{oracle['sla_miss_rate']:.2%}",
                "",
            )
        )
    print(
        format_table(
            [
                "policy",
                "energy (J)",
                "vs all-max",
                "mean slowdown",
                "p99 slowdown",
                "SLA miss",
                "peak W",
            ],
            rows,
            title=(
                f"Fleet policy comparison — {args.tenants} tenants, "
                f"seed {args.seed}, cap {args.power_cap:.0f} W"
            ),
        )
    )
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.fleet.grid import (
        DEFAULT_CAPS_W,
        GridConfig,
        grid_bytes,
        render_grid,
        run_grid,
    )

    caps = (
        tuple(float(cap) for cap in args.caps.split(","))
        if args.caps
        else DEFAULT_CAPS_W
    )
    policies = tuple(
        name.strip() for name in (args.policies or "").split(",") if name.strip()
    )
    config = GridConfig(
        tenants=args.tenants,
        seed=args.seed,
        policies=policies,
        caps_w=caps,
        rate_per_s=args.rate,
        corpus_dirs=tuple(args.corpus or ()),
    )
    payload = run_grid(config, cache=_profile_cache(args))
    print(render_grid(payload))
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(grid_bytes(payload))
        print(f"\nfigure written to {out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ProfileCache(args.cache_dir or default_profile_cache_dir())
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached profile(s) from {cache.root}")
    else:
        print(describe(cache))
    return 0


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tenants", type=int, default=100,
                        help="fleet size (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed: arrivals, tenant draw (default 0)")
    parser.add_argument("--power-cap", type=float, default=400.0,
                        help="fleet power cap in W (default 400)")
    parser.add_argument("--rate", type=float, default=4000.0,
                        help="mean arrival rate per second (default 4000)")
    parser.add_argument("--no-batch", action="store_true",
                        help="simulate every tenant independently instead "
                             "of batching distinct shapes (identical "
                             "results, much slower; disables the cache)")
    parser.add_argument("--corpus", action="append", metavar="DIR",
                        help="directory of promoted tenant specs "
                             "(repeatable)")
    parser.add_argument("--cache-dir", default=None,
                        help="profile store location (default: "
                             "REPRO_CACHE_DIR/fleet-profiles or "
                             "~/.cache/repro/fleet-profiles)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent "
                             "profile store")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-fleet`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Fleet-scale energy-manager simulation and policies.",
    )
    parser.add_argument(
        "--profile", nargs="?", default=UNSET, metavar="PSTATS",
        help="profile the run with cProfile; optional dump path "
             "(default repro-fleet.pstats; REPRO_PROFILE=1 also enables)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one fleet under one policy")
    _add_fleet_options(run)
    run.add_argument("--policy", default="paper-governor",
                     choices=policy_names(),
                     help="fleet policy (default paper-governor)")
    run.add_argument("--serve-workers", type=int, default=0, metavar="N",
                     help="validate governor decision streams through a "
                          "live N-worker serve pool (default off)")
    run.add_argument("--out", default=None,
                     help="write the canonical JSON report here")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="render a saved fleet report")
    report.add_argument("report", help="path written by run --out")
    report.set_defaults(func=_cmd_report)

    compare = sub.add_parser(
        "compare", help="run several policies over one drawn fleet"
    )
    _add_fleet_options(compare)
    compare.add_argument("--policies", default=None,
                         help="comma-separated subset (default: all)")
    compare.set_defaults(func=_cmd_compare)

    grid = sub.add_parser(
        "grid", help="evaluate the policy x power-cap grid (the figure)"
    )
    _add_fleet_options(grid)
    grid.add_argument("--policies", default=None,
                      help="comma-separated subset (default: all)")
    grid.add_argument("--caps", default=None,
                      help="comma-separated power caps in W "
                           "(default 150,250,400,600)")
    grid.add_argument("--out", default=None,
                      help="write the canonical figure JSON here")
    grid.set_defaults(func=_cmd_grid)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent profile store"
    )
    cache.add_argument("action", nargs="?", default="stats",
                       choices=("stats", "clear"))
    cache.add_argument("--cache-dir", default=None,
                       help="profile store location (default: "
                            "REPRO_CACHE_DIR/fleet-profiles)")
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    profile_path = resolve_profile_path(args.profile, "repro-fleet.pstats")

    def invoke() -> int:
        try:
            return args.func(args)
        except ReproError as exc:
            print(f"error: {exc}")
            return 2

    return run_maybe_profiled(invoke, profile_path)


if __name__ == "__main__":
    raise SystemExit(main())
