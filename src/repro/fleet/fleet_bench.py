"""Fleet build benchmark: naive vs batched vs warm store.

The fleet's hot path is *profile building* — running the simulations
behind every tenant the drawn population needs. This benchmark times
the same drawn fleet through every build strategy the engine offers,
coldest to warmest:

``naive``
    every tenant simulated independently, fresh program, no sharing —
    what the population costs without any of the machinery;
``serial``
    tenants deduplicated into distinct shapes and batched through
    :mod:`repro.sim.batch` (one shared timing store per workload
    family), in-process, publishing into a fresh
    :class:`~repro.fleet.profile_cache.ProfileCache`;
``warm``
    a second run against the store the serial build just filled —
    no simulation at all, profiles rehydrate from disk.

Each phase is timed ``reps`` times (min/median/mean via
:func:`repro.sim.bench.wall_stats`, as is the engine phase), every
store then drives one full engine run, and all reports must be
byte-identical on the determinism view — the run aborts otherwise, so
every speedup is pure mechanics. The gated metrics:

* ``cold_speedup`` — median naive / median serial build (what batching
  distinct shapes saves a cold run; CI floors this at 3x);
* ``warm_speedup`` — median serial cold build / median warm build
  (what the persistent store saves a repeat run; CI floors this at
  5x — warm runs drop to engine-only cost).
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional

from repro.common.errors import ReproError
from repro.fleet.corpus import builtin_templates, draw_tenants
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.profile_cache import ProfileCache
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import report_identity_bytes
from repro.sim.bench import wall_stats

#: Policy the identity runs use (exercises the governor stepping path).
_BENCH_POLICY = "paper-governor"


def fleet_bench(
    tenants: int = 512,
    seed: int = 7,
    reps: int = 1,
    cache_root: Optional[str] = None,
) -> Dict[str, object]:
    """Time every fleet build strategy; verify byte-identity throughout."""
    if reps < 1:
        raise ReproError("reps must be >= 1")
    specs = draw_tenants(builtin_templates(), tenants, seed)
    config = FleetConfig(tenants=tenants, seed=seed, policy=_BENCH_POLICY)

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        root = cache_root or tmp

        naive_walls: List[float] = []
        serial_walls: List[float] = []
        warm_walls: List[float] = []
        diagnostics: Dict[str, int] = {}
        naive_store = serial_store = warm_store = None
        for rep in range(reps):
            naive_store = ProfileStore()
            begin = time.perf_counter()
            naive_store.build(specs, batch=False)
            naive_walls.append(time.perf_counter() - begin)

            # A fresh cache directory per rep keeps the serial phase
            # cold; the warm phase reads what it published.
            cache = ProfileCache(ProfileCache(root).root / f"rep-{rep}")
            serial_store = ProfileStore(cache=cache)
            begin = time.perf_counter()
            diagnostics = serial_store.build(specs)
            serial_walls.append(time.perf_counter() - begin)

            warm_store = ProfileStore(cache=ProfileCache(cache.root))
            begin = time.perf_counter()
            warm = warm_store.build(specs)
            warm_walls.append(time.perf_counter() - begin)
            if warm["cache_hits"] != diagnostics["profiles_total"]:
                raise ReproError(
                    f"warm build hit {warm['cache_hits']} of "
                    f"{diagnostics['profiles_total']} profiles in the store"
                )

        engine_walls: List[float] = []
        reports = []
        for store in (naive_store, serial_store, warm_store):
            begin = time.perf_counter()
            reports.append(run_fleet(config, store=store))
            engine_walls.append(time.perf_counter() - begin)
        views = {report_identity_bytes(report) for report in reports}
        if len(views) != 1:
            raise ReproError(
                "naive/serial/warm fleet runs diverged: the reports are "
                "not byte-identical on the determinism view"
            )
        cache_disk = warm_store.cache.disk_stats()

    naive = wall_stats(naive_walls)
    serial = wall_stats(serial_walls)
    warm = wall_stats(warm_walls)
    engine = wall_stats(engine_walls)
    cold_run_s = serial["median"] + engine_walls[1]
    warm_run_s = warm["median"] + engine_walls[2]
    return {
        "tenants": tenants,
        "seed": seed,
        "reps": reps,
        "profiles": diagnostics.get("profiles_total", 0),
        "groups": diagnostics.get("groups", 0),
        "prewarmed_freqs": diagnostics.get("prewarmed_freqs", 0),
        "naive_build_s": naive,
        "serial_build_s": serial,
        "warm_build_s": warm,
        "engine_s": engine,
        "cold_speedup": naive["median"] / serial["median"],
        "warm_speedup": serial["median"] / warm["median"],
        "cold_run_s": cold_run_s,
        "warm_run_s": warm_run_s,
        "tenants_per_s": tenants / cold_run_s,
        "cache_entries": cache_disk["entries"],
        "cache_size_bytes": cache_disk["size_bytes"],
        "identical": True,
        "policy": _BENCH_POLICY,
    }
