"""Policy × power-cap grids: the fleet-scale figure.

One grid cell is one :func:`~repro.fleet.engine.run_fleet` call — a
policy and a power cap over the *same* drawn fleet — and the figure the
ROADMAP asks for ("energy/slowdown at datacenter scale") is the whole
grid. The profile store is built (or warm-loaded through a shared
:class:`~repro.fleet.profile_cache.ProfileCache`) **once**, and every
cell then reads its profiles from that one store, so the cells
themselves never simulate. A cell is a pure function of its
configuration: the grid payload is byte-identical cold or warm — the CI
smoke ``cmp``-s a cold and a warm run of the figure writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.policy import policy_names
from repro.fleet.profile_cache import ProfileCache
from repro.fleet.profiles import ProfileStore

#: Schema version of the grid figure payload.
GRID_FORMAT_VERSION = 1

#: The ``kind`` field of a grid figure payload.
GRID_KIND = "repro-fleet-grid"

#: Default power caps (W) of the figure — from starved to unconstrained.
DEFAULT_CAPS_W = (150.0, 250.0, 400.0, 600.0)

#: Aggregate fields each cell carries into the figure payload.
_CELL_FIELDS = (
    "energy_j",
    "energy_saving_vs_max",
    "mean_slowdown",
    "p99_slowdown",
    "sla_miss_rate",
    "mean_queue_wait_ms",
    "peak_power_w",
    "cap_violations",
)


@dataclass(frozen=True)
class GridConfig:
    """One policy × cap grid over one drawn fleet."""

    tenants: int = 256
    seed: int = 42
    policies: Tuple[str, ...] = ()
    caps_w: Tuple[float, ...] = DEFAULT_CAPS_W
    rate_per_s: float = 4000.0
    corpus_dirs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.caps_w:
            raise ConfigError("grid needs at least one power cap")
        if any(cap <= 0 for cap in self.caps_w):
            raise ConfigError("power caps must be positive")

    def effective_policies(self) -> Tuple[str, ...]:
        return self.policies or tuple(policy_names())

    def cells(self) -> List[Tuple[str, float]]:
        """Deterministic cell order: policy-major, ascending caps."""
        return [
            (policy, cap)
            for policy in self.effective_policies()
            for cap in sorted(self.caps_w)
        ]

    def fleet_config(self, policy: str, cap_w: float) -> FleetConfig:
        from repro.fleet.arrivals import ArrivalConfig

        return FleetConfig(
            tenants=self.tenants,
            seed=self.seed,
            policy=policy,
            power_cap_w=cap_w,
            arrivals=ArrivalConfig(rate_per_s=self.rate_per_s),
            corpus_dirs=self.corpus_dirs,
        )


def _run_cell(
    config: GridConfig,
    policy: str,
    cap_w: float,
    spec: MachineSpec,
    store: ProfileStore,
) -> Dict[str, object]:
    report = run_fleet(config.fleet_config(policy, cap_w), spec=spec, store=store)
    cell: Dict[str, object] = {"policy": policy, "power_cap_w": cap_w}
    for name in _CELL_FIELDS:
        cell[name] = report.aggregate[name]
    cell["oracle_energy_j"] = report.oracle["energy_j"]
    return cell


def run_grid(
    config: GridConfig,
    cache: Optional[ProfileCache] = None,
    spec: Optional[MachineSpec] = None,
) -> Dict[str, object]:
    """Evaluate the whole grid; the figure payload.

    The profile store is built once up front — through ``cache`` when
    given, so repeat grids and ``repro-fleet`` runs share the work —
    and every cell runs serially over it.
    """
    from repro.fleet.corpus import builtin_templates, draw_tenants, load_corpus_dir

    spec = spec or haswell_i7_4770k()
    templates = builtin_templates()
    for directory in config.corpus_dirs:
        templates.extend(load_corpus_dir(directory))
    tenants = draw_tenants(templates, config.tenants, config.seed)

    store = ProfileStore(spec, cache=cache)
    build = store.build(tenants)
    rows = [
        _run_cell(config, policy, cap_w, spec, store)
        for policy, cap_w in config.cells()
    ]

    return {
        "kind": GRID_KIND,
        "format_version": GRID_FORMAT_VERSION,
        "config": {
            "tenants": config.tenants,
            "seed": config.seed,
            "policies": list(config.effective_policies()),
            "caps_w": sorted(config.caps_w),
            "rate_per_s": config.rate_per_s,
            "corpus_dirs": list(config.corpus_dirs),
        },
        "cells": rows,
        "diagnostics": {
            "profiles": build["profiles_total"],
            "cache_hits": build["cache_hits"],
        },
    }


def grid_bytes(payload: Dict[str, object]) -> bytes:
    """Canonical figure bytes — minus execution diagnostics, so cold
    and warm grid runs compare equal byte-for-byte."""
    import json

    view = {
        key: value for key, value in payload.items() if key != "diagnostics"
    }
    return (
        json.dumps(view, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def render_grid(payload: Dict[str, object]) -> str:
    """Human-readable grid table (one row per cell)."""
    from repro.common.tables import format_table

    rows = [
        (
            cell["policy"],
            f"{cell['power_cap_w']:.0f}",
            f"{cell['energy_j']:.3f}",
            f"{cell['energy_saving_vs_max']:.1%}",
            f"{cell['mean_slowdown']:.3%}",
            f"{cell['p99_slowdown']:.3%}",
            f"{cell['sla_miss_rate']:.2%}",
            f"{cell['peak_power_w']:.0f}",
        )
        for cell in payload["cells"]
    ]
    config = payload["config"]
    return format_table(
        [
            "policy",
            "cap W",
            "energy (J)",
            "vs all-max",
            "mean slowdown",
            "p99 slowdown",
            "SLA miss",
            "peak W",
        ],
        rows,
        title=(
            f"Fleet grid — {config['tenants']} tenants, seed "
            f"{config['seed']}, {len(payload['cells'])} cells"
        ),
    )
