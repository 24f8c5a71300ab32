"""Self time, and tracing of functions bound by name at call sites."""

import sys
import types

import pytest

from benchkit import layers
from benchkit.spans import Tracer, self_times_ns, union_ns


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],   # overlaps a: union of children is 10..60
        ["c", 20, 30, 1],   # grandchild: charged to a, not root
    ]
    assert self_times_ns(spans) == [50, 20, 30, 10]


def test_union_clips_to_the_parent_interval():
    assert union_ns([(0, 50), (40, 120)], 10, 100) == 90
    assert union_ns([], 0, 10) == 0


def test_clock_driven_spans_nest():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    totals = tracer.totals("outer")
    assert totals["outer"]["total_s"] == pytest.approx(30e-9)
    assert totals["outer"]["self_s"] == pytest.approx(20e-9)
    assert totals["inner"]["self_s"] == pytest.approx(10e-9)


def test_spans_and_counters_are_read_per_root():
    tracer = Tracer()
    for root_name in ("bench.setup", "bench.job", "bench.job"):
        root = tracer.begin(root_name)
        tracer.end(tracer.begin("store.get"))
        tracer.count("store.misses" if root_name == "bench.setup" else "store.hits")
        tracer.end(root)
    assert tracer.totals("bench.setup")["store.get"]["calls"] == 1
    assert tracer.totals("bench.job")["store.get"]["calls"] == 2
    assert tracer.totals("bench.job")["bench.job"]["calls"] == 2
    assert "bench.setup" not in tracer.totals("bench.job")
    assert dict(tracer.counters["bench.setup"]) == {"store.misses": 1.0}
    assert dict(tracer.counters["bench.job"]) == {"store.hits": 2.0}


def _fake_modules():
    home = types.ModuleType("repro._bench_fake_home")

    def work(x):
        return x + 1

    home.work = work
    caller = types.ModuleType("repro._bench_fake_caller")
    caller.work = work  # as ``from repro._bench_fake_home import work``
    caller.call = lambda x: caller.work(x)
    sys.modules[home.__name__] = home
    sys.modules[caller.__name__] = caller
    return home, caller, work


def test_install_wraps_every_name_binding_and_uninstall_restores():
    home, caller, work = _fake_modules()
    try:
        tracer = Tracer()
        assert tracer.install("repro._bench_fake_home:work", "fake.work") == 2
        root = tracer.begin("job")
        assert caller.call(1) == 2 and home.work(2) == 3
        tracer.end(root)
        assert tracer.totals("job")["fake.work"]["calls"] == 2
        tracer.uninstall()
        assert caller.work is work and home.work is work
    finally:
        del sys.modules[home.__name__], sys.modules[caller.__name__]


def test_install_wraps_methods_and_classmethods_on_the_class():
    home = types.ModuleType("repro._bench_fake_cls")

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls()

    home.Thing = Thing
    sys.modules[home.__name__] = home
    try:
        tracer = Tracer()
        tracer.install("repro._bench_fake_cls:Thing.method", "thing.method")
        tracer.install("repro._bench_fake_cls:Thing.build", "thing.build")
        root = tracer.begin("job")
        assert Thing.build().method() == "m"
        tracer.end(root)
        assert set(tracer.totals("job")) == {"job", "thing.method", "thing.build"}
        tracer.uninstall()
        assert "benchkit" not in repr(Thing.__dict__["method"])
    finally:
        del sys.modules[home.__name__]


def test_guard_looks_for_each_layer_under_its_root():
    by_root = {layers.SETUP: {}, layers.JOB: {}}
    for name in layers.GUARD:
        by_root[layers.root_of(name)][name] = {"calls": 1}
    assert layers.guard("fleet", by_root) == []
    assert layers.root_of("sim.batch") == layers.SETUP
    assert layers.root_of("store.get") == layers.JOB
    del by_root[layers.JOB]["store.get"]
    # A cold build under the job root does not serve the setup layer.
    by_root[layers.JOB]["sim.batch"] = by_root[layers.SETUP].pop("sim.batch")
    assert layers.guard("fleet", by_root) == ["sim.batch", "store.get"]
    assert layers.guard("paper-warm", by_root) == []


def test_layer_metrics_keep_setup_work_out_of_the_job():
    by_root = {
        layers.SETUP: {
            "bench.setup": {"calls": 1, "self_s": 0.5, "total_s": 3.0},
            "fleet.build": {"calls": 1, "self_s": 1.0, "total_s": 2.0},
            "store.get": {"calls": 9, "self_s": 0.2, "total_s": 0.2},
            "fleet.draw": {"calls": 1, "self_s": 0.3, "total_s": 0.3},
        },
        layers.JOB: {
            "bench.job": {"calls": 1, "self_s": 0.1, "total_s": 2.0},
            "fleet.build": {"calls": 1, "self_s": 0.4, "total_s": 0.9},
            "store.get": {"calls": 9, "self_s": 0.5, "total_s": 0.5},
        },
    }
    counters = {layers.SETUP: {"store.misses": 9.0}, layers.JOB: {"store.hits": 9.0}}
    got = layers.layer_metrics(by_root, counters)
    assert got["fleet.build_s"] == 1.0          # moves setup_s: set-up root
    assert got["fleet.warm_build_s"] == 0.4
    assert got["store.get_s"] == 0.5 and got["fleet.draw_s"] == 0.0
    assert (got["store.hits"], got["store.misses"]) == (9.0, 0.0)
    assert got["residual_s"] == 0.1
