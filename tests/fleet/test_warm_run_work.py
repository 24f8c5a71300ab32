"""What a warm fleet run does per tenant and per event.

A warm ``run_fleet`` reads every profile back from the store. These
tests pin two pieces of work it must not repeat: each workload object's
canonical JSON is serialized at most once however many tenants share
it, and the tail-allocator policy, which reads only the sweep matrices,
never creates a ``TraceEvent``.
"""

from collections import Counter

import pytest

import repro.workloads.synthetic as synthetic
from repro.fleet.corpus import builtin_templates, draw_tenants
from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.profile_cache import ProfileCache
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import report_bytes
from repro.sim.trace import TraceEvent

CONFIG = FleetConfig(tenants=2048, seed=5, policy="tail-allocator")


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """(store directory, report bytes) of one cold run into an empty store."""
    root = tmp_path_factory.mktemp("fleet-profiles")
    report = run_fleet(CONFIG, store=ProfileStore(cache=ProfileCache(root)))
    assert report.diagnostics["profiles_built"] > 1
    return root, report_bytes(report)


@pytest.fixture
def store_dir(cold):
    return cold[0]


@pytest.fixture
def built_events(monkeypatch):
    """Counts every TraceEvent created while the test runs."""
    built = []
    init = TraceEvent.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting)
    return built


def test_warm_tail_allocator_run_builds_no_trace_event(store_dir, built_events):
    store = ProfileStore(cache=ProfileCache(store_dir))
    report = run_fleet(CONFIG, store=store)
    assert report.diagnostics["profiles_built"] == 0
    assert report.diagnostics["cache_hits"] == len(store.profiles) > 1
    assert len(report.tenants) == CONFIG.tenants
    assert built_events == []
    # The counter does see events when something reads them.
    trace = next(iter(store.profiles.values())).trace
    trace.events[0]
    assert len(built_events) == 1


def test_warm_report_equals_the_cold_one(cold):
    root, cold_bytes = cold
    warm = run_fleet(CONFIG, store=ProfileStore(cache=ProfileCache(root)))
    assert warm.diagnostics["profiles_built"] == 0
    assert report_bytes(warm) == cold_bytes


def test_each_workload_object_is_serialized_once(store_dir, monkeypatch):
    tenants = draw_tenants(builtin_templates(), CONFIG.tenants, CONFIG.seed)
    workloads = {id(tenant.workload): tenant.workload for tenant in tenants}
    assert len(workloads) < len(tenants)
    serialized = Counter()
    field_dict = synthetic._field_dict

    def counting(value):
        if isinstance(value, synthetic.SyntheticWorkloadConfig):
            serialized[id(value)] += 1
        return field_dict(value)

    monkeypatch.setattr(synthetic, "_field_dict", counting)
    run_fleet(
        CONFIG,
        store=ProfileStore(cache=ProfileCache(store_dir)),
        tenants=tenants,
    )
    assert set(serialized) == set(workloads)
    assert max(serialized.values()) == 1

