"""Datacenter-scale governor fleet simulation (``repro.fleet``).

The paper's energy manager governs one managed application; the fleet
layer asks what happens when *hundreds to thousands* of energy-managed
tenants share a power envelope. A seeded open-loop arrival process
(Poisson with bursty and diurnal phases, :mod:`repro.fleet.arrivals`)
spawns tenants drawn from a corpus of workload families
(:mod:`repro.fleet.corpus` — synthetic families plus fuzz-found
``repro.qa`` cases promoted through the ``FuzzCase -> tenant spec``
adapter in :mod:`repro.fleet.tenants`). Each distinct tenant shape is
profiled once through the simulator — batched via
:mod:`repro.sim.batch` so families share one prewarmed timing store —
and the profile's per-interval sweep-kernel matrices
(:mod:`repro.fleet.profiles`) answer every policy's duration/energy
questions without re-simulating per tenant.

On top sits a pluggable policy layer (:mod:`repro.fleet.policy`): the
all-max static baseline, the per-tenant paper governor, the per-tenant
static oracle, and two prediction-driven fleet policies — admission
under a fleet power cap and a tail-aware frequency allocator. The
event-driven engine (:mod:`repro.fleet.engine`) is fully deterministic
from one seed; same-seed runs emit byte-identical reports
(:mod:`repro.fleet.report`), and :mod:`repro.fleet.serve_mode` can
drive every governor decision stream through a real multi-worker
``repro.serve`` pool to validate the wire path at fleet scale.

Profiles persist: :mod:`repro.fleet.profile_cache` gives every
simulated trace a content-addressed on-disk home so repeat runs skip
simulation, and :mod:`repro.fleet.grid` runs a policy × power-cap study
over one shared store. Neither moves a report byte — the
``fleet-store-identity`` qa invariant holds fresh, cold-cached and
store-rehydrated runs byte-identical.
"""

from repro.fleet.arrivals import ArrivalConfig, generate_arrivals
from repro.fleet.corpus import builtin_templates, draw_tenants, load_corpus_dir
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.grid import GridConfig, grid_bytes, render_grid, run_grid
from repro.fleet.policy import get_policy, policy_names, prediction_driven_names
from repro.fleet.profile_cache import (
    ProfileCache,
    default_profile_cache_dir,
    profile_cache_key,
)
from repro.fleet.profiles import ProfileStore, TenantProfile
from repro.fleet.report import FleetReport, render_report, report_identity_bytes
from repro.fleet.tenants import (
    TENANT_FORMAT_VERSION,
    TenantSpec,
    tenant_from_fuzz_case,
    tenant_spec_from_dict,
    tenant_spec_to_dict,
)

__all__ = [
    "ArrivalConfig",
    "FleetConfig",
    "FleetReport",
    "GridConfig",
    "ProfileCache",
    "ProfileStore",
    "TENANT_FORMAT_VERSION",
    "TenantProfile",
    "TenantSpec",
    "builtin_templates",
    "default_profile_cache_dir",
    "draw_tenants",
    "generate_arrivals",
    "get_policy",
    "grid_bytes",
    "load_corpus_dir",
    "policy_names",
    "prediction_driven_names",
    "profile_cache_key",
    "render_grid",
    "render_report",
    "report_identity_bytes",
    "run_fleet",
    "run_grid",
    "tenant_from_fuzz_case",
    "tenant_spec_from_dict",
    "tenant_spec_to_dict",
]
