"""Command-line entry point: regenerate all (or selected) experiments.

Installed as ``repro-experiments``::

    repro-experiments                    # everything, REPRO_SCALE honoured
    repro-experiments fig3 fig6          # a subset
    repro-experiments claims             # the paper's claims; exit 1 on a failure
    REPRO_SCALE=0.3 repro-experiments table1
    repro-experiments --jobs 8           # fan ground truths out over 8 workers
    repro-experiments cache stats        # inspect the persistent result cache
    repro-experiments cache clear

Ground-truth simulations are persisted in a content-addressed cache
(``~/.cache/repro``, override with ``REPRO_CACHE_DIR`` or ``--cache-dir``)
keyed by every input that determines the result, so a second invocation
at the same configuration re-simulates nothing. ``--no-cache`` opts out;
``--jobs N`` (or ``REPRO_JOBS``) runs the needed grid in parallel worker
processes before the tables and figures are rendered serially, and
``--batch`` simulates each benchmark's fixed-frequency fan-out as one
batched run. Predictions always go through the sweep kernels
(:mod:`repro.core.sweep`); the scalar predictors they match bit for bit
are reference oracles for the tests and ``repro-qa``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, List

from repro.common.errors import ConfigError
from repro.common.lazy import LazyModules
from repro.common.profiling import UNSET, resolve_profile_path, run_maybe_profiled
from repro.common.validation import resolve_jobs
from repro.experiments import (
    claims,
    fig1,
    fig3,
    fig4,
    fig6,
    fig7,
    hetero,
    sensitivity,
    sequential,
    table1,
    table2,
)
from repro.experiments.cache import ResultCache, default_cache_dir, describe
from repro.experiments.parallel import WorkItem, execute
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import default_config

#: Experiment name -> driver module (each exposes ``run`` and ``work``).
#: The paper's drivers load with the CLI; ``serve`` and ``fleet`` pull in
#: the server and fleet layers, so they load when first looked up.
_EXPERIMENTS = LazyModules({
    "table1": table1,
    "table2": table2,
    "sequential": sequential,
    "fig1": fig1,
    "fig3": fig3,
    "sensitivity": sensitivity,
    "fig4": fig4,
    "fig6": fig6,
    "fig7": fig7,
    "hetero": hetero,
    "serve": "repro.experiments.serve_replay",
    "fleet": "repro.experiments.fleet_study",
    "claims": claims,
})

#: Order that maximizes ground-truth cache reuse. ``claims`` only reads
#: what the figures compute, so it runs when named.
_DEFAULT_ORDER = (
    "table2", "table1", "sequential", "fig1", "fig3", "sensitivity",
    "fig4", "fig6", "fig7", "hetero", "serve", "fleet",
)


def _as_results(value) -> List[ExperimentResult]:
    if isinstance(value, ExperimentResult):
        return [value]
    return list(value)


def _modules(names: Iterable[str]):
    modules = []
    for name in names:
        module = _EXPERIMENTS.get(name)
        if module is None:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}"
            )
        modules.append((name, module))
    return modules


def suite_work(names: Iterable[str], runner: ExperimentRunner) -> List[WorkItem]:
    """Deduplicated ground-truth grid of the named experiments."""
    items = set()
    for _, module in _modules(names):
        items.update(module.work(runner.config))
    return sorted(items)


def run_experiments(
    names: Iterable[str], runner: ExperimentRunner
) -> List[ExperimentResult]:
    """Run the named experiments; return their results in order."""
    results: List[ExperimentResult] = []
    for _, module in _modules(names):
        results.extend(_as_results(module.run(runner)))
    return results


def cache_main(argv=None) -> int:
    """``repro-experiments cache [stats|clear]``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments cache",
        description="Inspect or clear the persistent ground-truth cache.",
    )
    parser.add_argument(
        "action", nargs="?", default="stats", choices=("stats", "clear")
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache location (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached file(s) from {cache.root}")
    else:
        print(describe(cache))
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "--profile", nargs="?", default=UNSET, metavar="PSTATS",
        help="profile the run with cProfile; optional dump path "
             "(default repro-experiments.pstats; REPRO_PROFILE=1 also "
             "enables)",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(_DEFAULT_ORDER),
        help=f"subset of {sorted(_EXPERIMENTS)} (default: all but claims)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for ground-truth simulations "
        "(default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache location "
        "(default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent result cache",
    )
    batch_group = parser.add_mutually_exclusive_group()
    batch_group.add_argument(
        "--batch",
        dest="batch",
        action="store_true",
        default=False,
        help="simulate each benchmark's fixed-frequency fan-out as one "
        "batched run (repro.sim.batch): the program is pre-timed once "
        "per frequency in a single columnar pass; bit-identical results",
    )
    batch_group.add_argument(
        "--no-batch",
        dest="batch",
        action="store_false",
        help="one simulation per (benchmark, frequency) grid cell "
        "(default)",
    )
    args = parser.parse_args(argv)
    profile_path = resolve_profile_path(args.profile, "repro-experiments.pstats")
    return run_maybe_profiled(lambda: _run_suite(parser, args), profile_path)


def _run_suite(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        config = default_config()
        jobs = resolve_jobs(args.jobs)
    except ConfigError as exc:
        parser.error(str(exc))
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    runner = ExperimentRunner(config, cache=cache)
    print(
        f"# DEP+BURST reproduction — scale={runner.config.scale}, "
        f"benchmarks={', '.join(runner.config.benchmarks)}"
    )
    started = time.time()
    grid = suite_work(args.experiments, runner)
    if grid:
        print(
            f"# ground truths: {len(grid)} runs, {jobs} job(s), "
            f"cache {'off' if cache is None else cache.root}"
        )
        report = execute(runner, grid, jobs=jobs, batch=args.batch)
        for item, error in report.recovered:
            print(f"# worker failed on {item} ({error}); recomputed serially")
    failed = False
    for result in run_experiments(args.experiments, runner):
        print()
        print(result.to_text())
        sys.stdout.flush()
        failed = failed or result.failed
    stats = runner.cache.stats if runner.cache is not None else None
    cache_note = (
        f", {stats.hits} cache hits" if stats is not None else ""
    )
    print(
        f"\n# done in {time.time() - started:.0f}s — "
        f"{runner.simulations} simulation(s) in-process{cache_note}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
