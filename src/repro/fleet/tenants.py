"""Tenant specifications: what one fleet member runs and expects.

A :class:`TenantSpec` is the fleet's unit of configuration — a workload
(:class:`~repro.workloads.synthetic.SyntheticWorkloadConfig`), how it is
profiled (base frequency, scheduling quantum, predictor), how its
governor is configured (:class:`~repro.energy.manager.ManagerConfig`)
and what service level it expects (``sla_slowdown``, the whole-run
slowdown — queueing included — the tenant tolerates versus its
all-max-frequency baseline).

Specs round-trip exactly through JSON (:func:`tenant_spec_to_dict` /
:func:`tenant_spec_from_dict`, versioned like the QA case format), which
is what ``repro-qa promote`` writes into a fleet corpus directory and
what :func:`repro.fleet.corpus.load_corpus_dir` reads back.
:func:`tenant_from_fuzz_case` is the ``FuzzCase -> TenantSpec`` adapter
that turns a fuzz-found workload into a first-class fleet tenant.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.arch.dram import DramConfig
from repro.common.errors import ConfigError
from repro.common.units import check_frequency
from repro.energy.manager import ManagerConfig
from repro.workloads.program import Program
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

if TYPE_CHECKING:  # the adapter's one use; importing it loads all of repro.qa
    from repro.qa.fuzzer import FuzzCase

#: Bump when the tenant spec schema changes; loaders refuse other versions.
TENANT_FORMAT_VERSION = 1

#: The ``kind`` field of a serialized tenant spec.
TENANT_KIND = "repro-fleet-tenant"

#: Extra whole-run slowdown a promoted fuzz tenant tolerates on top of
#: its governor threshold (the governor bound is per-interval and leaves
#: no room for queueing; the SLA is end-to-end).
PROMOTED_SLA_MARGIN = 0.05


@dataclass(frozen=True)
class TenantSpec:
    """One fleet tenant: a workload plus how to run and judge it."""

    name: str
    workload: SyntheticWorkloadConfig
    #: Profiling frequency (a spec set point); the tenant is simulated
    #: once here and the sweep kernels predict every other set point.
    base_freq_ghz: float
    #: Scheduling quantum of the profile run (ns).
    quantum_ns: float
    #: Governor configuration (used by the paper-governor policy and as
    #: the slowdown bound of the prediction-driven policies).
    manager: ManagerConfig
    #: Predictor the profile's sweep matrices use.
    predictor: str = "DEP+BURST"
    #: Tolerated whole-run slowdown (queue wait included) vs. the
    #: all-max baseline; above it the tenant counts as an SLA miss.
    sla_slowdown: float = 0.10
    #: Where the spec came from (``family:<name>`` or
    #: ``promoted:qa-seed-<n>``).
    origin: str = "family:unknown"
    #: Free-form classification tags.
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_frequency("base_freq_ghz", self.base_freq_ghz)
        if self.quantum_ns <= 0:
            raise ConfigError("quantum_ns must be positive")
        if self.sla_slowdown < 0:
            raise ConfigError("sla_slowdown must be >= 0")

    def program(self) -> Program:
        """The deterministic program this tenant runs."""
        return build_synthetic_program(self.workload)

    @functools.cached_property
    def _profile_key(self) -> str:
        # Memo of profile_key(self). cached_property writes straight into
        # the instance __dict__, so the frozen spec accepts it, and it is
        # not a dataclass field: equality, asdict and the JSON form never
        # see it. dataclasses.replace builds a new spec, hence a new key.
        return _shape_key(
            self.workload.canonical_json,
            self.base_freq_ghz,
            self.quantum_ns,
            self.predictor,
        )


@functools.lru_cache(maxsize=4096, typed=True)
def _shape_key(
    workload_json: str, base_freq_ghz: float, quantum_ns: float, predictor: str
) -> str:
    """The profile key of one (workload, base, quantum, predictor) shape.

    It hashes the sorted-key JSON of those four fields. "workload" sorts
    last and json nests a value's text unchanged, so the workload's
    memoized text is spliced in for a placeholder. Cached by value, and
    typed, because ``4`` and ``4.0`` serialize differently: a fleet
    hashes each distinct shape once however many tenants share it.
    """
    head = json.dumps(
        {
            "base_freq_ghz": base_freq_ghz,
            "predictor": predictor,
            "quantum_ns": quantum_ns,
            "workload": 0,
        },
        sort_keys=True,
    )
    return _digest(head[:-2] + workload_json + "}")


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def workload_fingerprint(workload: SyntheticWorkloadConfig) -> str:
    """Stable content hash of a workload config (program identity)."""
    return _digest(workload.canonical_json)


def profile_key(spec: TenantSpec) -> str:
    """Identity of the tenant's *profile*: everything that determines
    the simulated trace and its sweep matrices, nothing more.

    Tenants that differ only in name, governor config or SLA share a
    profile — that sharing is what makes thousand-tenant fleets cheap.
    The key is hashed once per spec and memoized on it.
    """
    return spec._profile_key


def tenant_spec_to_dict(spec: TenantSpec) -> Dict[str, Any]:
    """Serialize a tenant spec to a JSON-compatible dict (exact)."""
    return {
        "format_version": TENANT_FORMAT_VERSION,
        "kind": TENANT_KIND,
        "name": spec.name,
        "workload": asdict(spec.workload),
        "base_freq_ghz": spec.base_freq_ghz,
        "quantum_ns": spec.quantum_ns,
        "manager": asdict(spec.manager),
        "predictor": spec.predictor,
        "sla_slowdown": spec.sla_slowdown,
        "origin": spec.origin,
        "tags": dict(spec.tags),
    }


def tenant_spec_from_dict(payload: Dict[str, Any]) -> TenantSpec:
    """Rebuild a tenant spec from :func:`tenant_spec_to_dict` output."""
    version = payload.get("format_version")
    if payload.get("kind") != TENANT_KIND or version != TENANT_FORMAT_VERSION:
        raise ConfigError(
            f"not a v{TENANT_FORMAT_VERSION} fleet tenant spec "
            f"(kind={payload.get('kind')!r}, format={version!r})"
        )
    workload_raw = dict(payload["workload"])
    workload_raw["dram"] = DramConfig(**workload_raw.pop("dram"))
    try:
        return TenantSpec(
            name=str(payload["name"]),
            workload=SyntheticWorkloadConfig(**workload_raw),
            base_freq_ghz=float(payload["base_freq_ghz"]),
            quantum_ns=float(payload["quantum_ns"]),
            manager=ManagerConfig(**payload["manager"]),
            predictor=str(payload.get("predictor", "DEP+BURST")),
            sla_slowdown=float(payload.get("sla_slowdown", 0.10)),
            origin=str(payload.get("origin", "family:unknown")),
            tags=dict(payload.get("tags", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed fleet tenant spec: {exc}") from exc


def tenant_from_fuzz_case(
    case: FuzzCase, name: Optional[str] = None
) -> TenantSpec:
    """The ``FuzzCase -> TenantSpec`` adapter behind ``repro-qa promote``.

    The case's workload, profiling base, quantum and manager carry over
    verbatim; the SLA is the governor threshold plus a fixed end-to-end
    margin (:data:`PROMOTED_SLA_MARGIN`), since fuzz cases have no SLA
    of their own.
    """
    return TenantSpec(
        name=name or f"qa-seed-{case.seed}",
        workload=case.config,
        base_freq_ghz=case.base_freq_ghz,
        quantum_ns=case.quantum_ns,
        manager=case.manager,
        sla_slowdown=round(
            case.manager.tolerable_slowdown + PROMOTED_SLA_MARGIN, 6
        ),
        origin=f"promoted:qa-seed-{case.seed}",
        tags={"origin": "repro-qa", "seed": str(case.seed)},
    )
