"""Fleet policy study: the policy × power-cap grid, one drawn fleet.

The paper evaluates its predictor inside one JVM at a time; this driver
asks what the same prediction machinery buys a *fleet*: hundreds of
energy-managed tenants arriving on an open-loop process, stepped
through :mod:`repro.fleet` under every registered policy at every power
cap of :data:`CAPS_W` — the full grid of
:mod:`repro.fleet.grid` over one drawn population. Profiles are built
once (batched, persisted in the fleet profile cache when the suite's
cache is on) and shared by every cell. Reported per cell: aggregate energy against the
all-max-frequency baseline, mean and tail slowdown, SLA misses, and
peak fleet power — plus the per-tenant static-oracle bound
(:mod:`repro.energy.static_oracle`), the best any frequency-per-tenant
assignment could do with hindsight (cap-independent, so one row).

The run is deterministic from the study seed, cold or warm: the same
table regenerates identically on every invocation. The grid's figure
JSON is written by ``repro-fleet grid --tenants 256 --seed 42 --out F``
(:mod:`repro.fleet.cli`), which the CI fleet-store job renders twice
against a warm store and byte-compares.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments.report import ExperimentResult, pct_abs
from repro.experiments.runner import ExperimentRunner
from repro.fleet.grid import DEFAULT_CAPS_W, GridConfig, run_grid
from repro.fleet.profile_cache import ProfileCache

#: Fleet drawn for the study (big enough that every builtin family and
#: both quanta appear; small enough for the experiment suite's budget).
FLEET_TENANTS = 256
#: Study seed: tenant draw + arrival process.
FLEET_SEED = 42
#: Power caps (W) of the grid — from starved to unconstrained.
CAPS_W = DEFAULT_CAPS_W


def work(config):
    """Fleet profiles are tenant-shaped, not benchmark-shaped: nothing
    in the shared ground-truth cache applies, so there is no prefetch."""
    return []


def profile_cache_for(runner: ExperimentRunner) -> Optional[ProfileCache]:
    """The fleet profile cache riding the suite's result cache.

    Lives under the result cache's directory (so ``--cache-dir`` and
    ``REPRO_CACHE_DIR`` govern both and ``--no-cache`` disables both).
    """
    if getattr(runner, "cache", None) is None:
        return None
    return ProfileCache(Path(runner.cache.root) / "fleet-profiles")


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Evaluate every fleet policy at every cap over one population."""
    config = GridConfig(tenants=FLEET_TENANTS, seed=FLEET_SEED, caps_w=CAPS_W)
    payload = run_grid(config, cache=profile_cache_for(runner))
    result = ExperimentResult(
        experiment_id="Fleet study",
        title=(
            f"Fleet policy × cap grid, {FLEET_TENANTS} tenants, seed "
            f"{FLEET_SEED}, caps {'/'.join(f'{c:.0f}' for c in sorted(CAPS_W))} W"
        ),
        headers=["policy", "cap W", "energy (J)", "vs all-max",
                 "mean slowdown", "p99 slowdown", "SLA miss", "peak W"],
        notes="static-oracle row is the per-tenant hindsight bound, not "
        "a schedulable policy; capped policies respect the fleet power "
        "cap, uncapped ones ignore it (their rows repeat across caps)",
    )
    oracle_energy = None
    for cell in payload["cells"]:
        oracle_energy = cell["oracle_energy_j"]
        capped = "" if cell["cap_violations"] == 0 else " (CAP!)"
        result.rows.append(
            (
                cell["policy"],
                f"{cell['power_cap_w']:.0f}",
                f"{cell['energy_j']:.3f}",
                pct_abs(cell["energy_saving_vs_max"]) + " saved",
                pct_abs(cell["mean_slowdown"]),
                pct_abs(cell["p99_slowdown"]),
                pct_abs(cell["sla_miss_rate"]),
                f"{cell['peak_power_w']:.0f}{capped}",
            )
        )
    if oracle_energy is not None:
        result.rows.append(
            ("static-oracle/tenant", "", f"{oracle_energy:.3f}",
             "", "", "", "", "")
        )
    return result
