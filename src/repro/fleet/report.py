"""Fleet run reports: deterministic JSON plus a text dashboard.

A :class:`FleetReport` captures everything a fleet run produced — the
resolved configuration, per-tenant outcomes, the aggregate
energy/slowdown/SLA dashboard and the per-tenant static-oracle
comparison. Serialization is canonical (sorted keys, ``repr``-exact
floats, trailing newline), so two runs of the same seed produce
byte-identical files; :func:`report_identity_bytes` is the
determinism-test view, excluding only the build diagnostics that
legitimately differ between the batched and unbatched paths (group and
prewarm counts) and the optional serve-validation block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.errors import ConfigError
from repro.common.tables import format_table

#: Bump when the report schema changes.
REPORT_FORMAT_VERSION = 1

#: The ``kind`` field of a serialized fleet report.
REPORT_KIND = "repro-fleet-report"

_PathLike = Union[str, Path]

#: Build counters that describe *how* this particular run executed —
#: simulations run, batch groups, persistent-store hits — rather than
#: what it computed. They vary between a cold and a warm run of the
#: same seed, so the canonical ``--out`` bytes exclude them.
_VOLATILE_DIAGNOSTICS = (
    "profiles_built",
    "groups",
    "prewarmed_freqs",
    "cache_hits",
)


@dataclass
class FleetReport:
    """Everything one fleet run produced."""

    config: Dict[str, Any]
    policy: str
    aggregate: Dict[str, Any]
    oracle: Dict[str, Any]
    tenants: List[Dict[str, Any]]
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    serve: Optional[Dict[str, Any]] = None


def percentile(values: List[float], q: float) -> float:
    """Deterministic order-statistic percentile (no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def report_to_dict(report: FleetReport) -> Dict[str, Any]:
    """Serialize a report to a JSON-compatible dict."""
    payload: Dict[str, Any] = {
        "format_version": REPORT_FORMAT_VERSION,
        "kind": REPORT_KIND,
        "config": report.config,
        "policy": report.policy,
        "aggregate": report.aggregate,
        "oracle": report.oracle,
        "tenants": report.tenants,
        "diagnostics": report.diagnostics,
    }
    if report.serve is not None:
        payload["serve"] = report.serve
    return payload


def report_from_dict(payload: Dict[str, Any]) -> FleetReport:
    """Rebuild a report from :func:`report_to_dict` output."""
    version = payload.get("format_version")
    if payload.get("kind") != REPORT_KIND or version != REPORT_FORMAT_VERSION:
        raise ConfigError(
            f"not a v{REPORT_FORMAT_VERSION} fleet report "
            f"(kind={payload.get('kind')!r}, format={version!r})"
        )
    return FleetReport(
        config=dict(payload["config"]),
        policy=str(payload["policy"]),
        aggregate=dict(payload["aggregate"]),
        oracle=dict(payload["oracle"]),
        tenants=list(payload["tenants"]),
        diagnostics=dict(payload.get("diagnostics", {})),
        serve=payload.get("serve"),
    )


def report_bytes(report: FleetReport) -> bytes:
    """Canonical serialization: what ``--out`` writes, byte for byte.

    Execution-only diagnostics (:data:`_VOLATILE_DIAGNOSTICS`) are
    dropped so the file is byte-identical whether the profile store was
    cold or warm.
    """
    payload = report_to_dict(report)
    payload["diagnostics"] = {
        key: value
        for key, value in payload["diagnostics"].items()
        if key not in _VOLATILE_DIAGNOSTICS
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(
        "utf-8"
    )


def report_identity_bytes(report: FleetReport) -> bytes:
    """The determinism view: everything except build diagnostics/serve.

    Batched and unbatched runs of one seed must agree on these bytes;
    so must two same-seed runs of the same mode on the full file.
    """
    payload = report_to_dict(report)
    payload.pop("diagnostics", None)
    payload.pop("serve", None)
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(
        "utf-8"
    )


def save_report(report: FleetReport, path: _PathLike) -> Path:
    """Write the canonical JSON to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(report_bytes(report))
    return target


def load_report(path: _PathLike) -> FleetReport:
    """Read a report back from :func:`save_report` output."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read fleet report {path}: {exc}") from exc
    return report_from_dict(payload)


def _family_rollup(report: FleetReport) -> List[tuple]:
    groups: Dict[str, Dict[str, float]] = {}
    for tenant in report.tenants:
        origin = str(tenant.get("origin", "?"))
        bucket = groups.setdefault(
            origin, {"n": 0, "energy_j": 0.0, "slowdown": 0.0, "misses": 0}
        )
        bucket["n"] += 1
        bucket["energy_j"] += float(tenant.get("energy_j", 0.0))
        bucket["slowdown"] += float(tenant.get("slowdown", 0.0))
        bucket["misses"] += 1 if tenant.get("sla_miss") else 0
    rows = []
    for origin in sorted(groups):
        bucket = groups[origin]
        n = int(bucket["n"])
        rows.append(
            (
                origin,
                str(n),
                f"{bucket['energy_j']:.3f}",
                f"{bucket['slowdown'] / n:.3%}",
                f"{bucket['misses'] / n:.1%}",
            )
        )
    return rows


def render_report(report: FleetReport) -> str:
    """The text dashboard of one fleet run."""
    agg = report.aggregate
    config = report.config
    head = [
        (
            "tenants",
            str(config.get("tenants", len(report.tenants))),
        ),
        ("seed", str(config.get("seed", "?"))),
        ("policy", report.policy),
        ("power cap", f"{float(config.get('power_cap_w', 0.0)):.0f} W"),
        ("profiles", str(report.diagnostics.get("profiles_total", "?"))),
        ("makespan", f"{float(agg.get('makespan_ms', 0.0)):.1f} ms"),
        ("energy", f"{float(agg.get('energy_j', 0.0)):.3f} J"),
        (
            "vs all-max",
            f"{float(agg.get('energy_saving_vs_max', 0.0)):.1%} saved",
        ),
        ("mean slowdown", f"{float(agg.get('mean_slowdown', 0.0)):.3%}"),
        ("p95 slowdown", f"{float(agg.get('p95_slowdown', 0.0)):.3%}"),
        ("p99 slowdown", f"{float(agg.get('p99_slowdown', 0.0)):.3%}"),
        ("SLA miss rate", f"{float(agg.get('sla_miss_rate', 0.0)):.2%}"),
        ("peak power", f"{float(agg.get('peak_power_w', 0.0)):.1f} W"),
        ("peak concurrency", str(agg.get("peak_concurrency", 0))),
        (
            "mean queue wait",
            f"{float(agg.get('mean_queue_wait_ms', 0.0)):.3f} ms",
        ),
        ("cap violations", str(agg.get("cap_violations", 0))),
        ("solo overrides", str(agg.get("solo_cap_overrides", 0))),
    ]
    sections = [
        format_table(
            ["metric", "value"],
            head,
            title=f"Fleet run — {report.policy}",
        ),
        format_table(
            ["family", "tenants", "energy (J)", "mean slowdown", "miss rate"],
            _family_rollup(report),
            title="Per-family rollup",
        ),
        format_table(
            ["metric", "policy", "static oracle"],
            [
                (
                    "energy (J)",
                    f"{float(agg.get('energy_j', 0.0)):.3f}",
                    f"{float(report.oracle.get('energy_j', 0.0)):.3f}",
                ),
                (
                    "mean slowdown",
                    f"{float(agg.get('mean_slowdown', 0.0)):.3%}",
                    f"{float(report.oracle.get('mean_slowdown', 0.0)):.3%}",
                ),
                (
                    "SLA miss rate",
                    f"{float(agg.get('sla_miss_rate', 0.0)):.2%}",
                    f"{float(report.oracle.get('sla_miss_rate', 0.0)):.2%}",
                ),
            ],
            title="Against the per-tenant static oracle",
        ),
    ]
    if report.serve is not None:
        sections.append(
            format_table(
                ["metric", "value"],
                [
                    ("workers", str(report.serve.get("workers"))),
                    ("decision groups", str(report.serve.get("groups"))),
                    ("decisions", str(report.serve.get("decisions"))),
                    ("status", str(report.serve.get("status"))),
                ],
                title="Serve-backed decision validation",
            )
        )
    return "\n\n".join(sections)
