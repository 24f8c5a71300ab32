"""The layers the traced run times, and the per-layer metrics they give.

:data:`TARGETS` names, per span, the public functions wrapped (see
:mod:`benchkit.spans`). :data:`GUARD` is the wiring guard: the workloads
on which each span must record at least one call — a refactor that
moves a call past its wrapper fails the traced run instead of silently
reporting zero. :data:`PER_LAYER` lists every per-layer metric with the
end-to-end metric and workload it should move.

A rep opens up to two root spans: :data:`SETUP` around its set-up work
and :data:`JOB` around the timed job. A metric that moves ``setup_s``
is read from the spans under :data:`SETUP`, every other metric from the
spans under :data:`JOB`, and the wiring guard looks for each span under
the root its metrics are read from.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from benchkit.spans import Tracer

PAPER = ("paper-cold", "paper-warm")
#: Root span names.
SETUP = "bench.setup"
JOB = "bench.job"


def _count_trace(tracer: Tracer, result) -> None:
    trace = result.trace
    tracer.count("sim.events", len(trace.events))
    tracer.count("sim.simulated_ns", trace.total_ns)


def _count_batch(tracer: Tracer, report) -> None:
    for result in report.results:
        _count_trace(tracer, result)


def _count_get(prefix: str):
    def count(tracer: Tracer, result) -> None:
        tracer.count(prefix + (".misses" if result is None else ".hits"))

    return count


#: span name -> [(module:qualname, on_result)] of the wrapped functions.
TARGETS: Dict[str, List[Tuple[str, Any]]] = {
    "workloads.build": [("repro.workloads.registry:get_benchmark", None)],
    "jvm.gc_cycle": [("repro.jvm.gc:GcModel.build_cycle", None)],
    "sim.simulate": [("repro.sim.run:simulate", _count_trace)],
    "sim.managed": [("repro.sim.run:simulate_managed", _count_trace)],
    "sim.batch": [("repro.sim.batch:run_batch", _count_batch)],
    "core.decompose": [("repro.core.sweep:EpochArrays.from_trace", None)],
    "core.sweep": [("repro.core.sweep:TraceSweep.predict", None)],
    "energy.step": [("repro.energy.manager:EnergyManagerSession.step", None)],
    "energy.account": [("repro.energy.account:compute_energy", None)],
    "experiments.cache_get": [
        ("repro.experiments.cache:ResultCache.load_fixed", _count_get("experiments")),
        ("repro.experiments.cache:ResultCache.load_managed", _count_get("experiments")),
    ],
    "experiments.cache_put": [
        ("repro.experiments.cache:ResultCache.store_fixed", None),
        ("repro.experiments.cache:ResultCache.store_managed", None),
    ],
    "store.get": [("repro.fleet.profile_cache:ProfileCache.get", _count_get("store"))],
    "store.put": [("repro.fleet.profile_cache:ProfileCache.put", None)],
    "fleet.draw": [
        ("repro.fleet.corpus:draw_tenants", None),
        ("repro.fleet.arrivals:generate_arrivals", None),
    ],
    "fleet.lookup": [
        ("repro.fleet.tenants:profile_key", None),
        ("repro.fleet.profiles:ProfileStore.profile_for", None),
    ],
    "fleet.policy": [("repro.fleet.policy:TailAwarePolicy.candidates", None)],
    "fleet.engine": [("repro.fleet.engine:run_fleet", None)],
    "fleet.report": [
        ("repro.fleet.report:render_report", None),
        ("repro.fleet.report:report_bytes", None),
    ],
    "fleet.build": [("repro.fleet.profiles:ProfileStore.build", None)],
}

#: Wiring guard: span -> workloads on which it must record >= 1 call.
GUARD: Dict[str, Sequence[str]] = {
    "workloads.build": PAPER,
    "jvm.gc_cycle": ("paper-cold",),
    "sim.simulate": ("paper-cold",),
    "sim.managed": ("paper-cold",),
    "sim.batch": ("fleet",),
    "core.decompose": PAPER,
    "core.sweep": PAPER,
    "energy.step": ("paper-cold",),
    "energy.account": ("paper-cold",),
    "experiments.cache_get": PAPER,
    "experiments.cache_put": ("paper-cold",),
    "store.get": ("fleet",),
    "store.put": ("fleet",),
    "fleet.draw": ("fleet",),
    "fleet.lookup": ("fleet",),
    "fleet.policy": ("fleet",),
    "fleet.engine": ("fleet",),
    "fleet.report": ("fleet",),
    "fleet.build": ("fleet",),
}

#: (metric, unit, better, moves) — ``moves`` names the end-to-end
#: metric and workload the layer metric should move.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("workloads.build_s", "s", "lower", "wall_s on paper-warm"),
    ("jvm.gc_cycle_s", "s", "lower", "wall_s on paper-cold"),
    ("jvm.gc_cycles", "count", "lower", "wall_s on paper-cold"),
    ("sim.simulate_s", "s", "lower", "wall_s on paper-cold"),
    ("sim.simulate_calls", "count", "lower", "wall_s on paper-cold"),
    ("sim.managed_s", "s", "lower", "wall_s on paper-cold"),
    ("sim.managed_calls", "count", "lower", "wall_s on paper-cold"),
    ("sim.events", "count", "lower", "wall_s on paper-cold"),
    ("sim.host_us_per_event", "us", "lower", "wall_s on paper-cold"),
    ("sim.simulated_ms", "ms", "lower", "none: a speed-only change leaves it identical"),
    ("sim.batch_s", "s", "lower", "setup_s on fleet"),
    ("core.decompose_s", "s", "lower", "wall_s on paper-warm"),
    ("core.decompositions", "count", "lower", "wall_s on paper-warm"),
    ("core.sweep_s", "s", "lower", "wall_s on paper-warm"),
    ("core.predict_calls", "count", "lower", "wall_s on paper-warm"),
    ("energy.step_s", "s", "lower", "wall_s on paper-cold"),
    ("energy.steps", "count", "lower", "wall_s on paper-cold"),
    ("energy.account_s", "s", "lower", "wall_s on paper-cold"),
    ("experiments.cache_get_s", "s", "lower", "wall_s on paper-warm"),
    ("experiments.cache_hits", "count", "higher", "wall_s on paper-warm"),
    ("experiments.cache_hit_ratio", "ratio", "higher", "wall_s on paper-warm"),
    ("experiments.cache_put_s", "s", "lower", "wall_s on paper-cold"),
    ("experiments.cache_misses", "count", "lower", "wall_s on paper-cold"),
    ("experiments.render_s", "s", "lower", "wall_s on paper-warm"),
    ("store.get_s", "s", "lower", "wall_s on fleet"),
    ("store.hits", "count", "higher", "wall_s on fleet"),
    ("store.misses", "count", "lower", "wall_s on fleet"),
    ("store.put_s", "s", "lower", "setup_s on fleet"),
    ("fleet.draw_s", "s", "lower", "wall_s on fleet"),
    ("fleet.lookup_s", "s", "lower", "wall_s on fleet"),
    ("fleet.lookups", "count", "lower", "wall_s on fleet"),
    ("fleet.policy_s", "s", "lower", "wall_s on fleet"),
    ("fleet.engine_s", "s", "lower", "wall_s on fleet"),
    ("fleet.report_s", "s", "lower", "wall_s on fleet"),
    ("fleet.peak_concurrency", "count", "lower", "wall_s on fleet"),
    ("fleet.profiles_built", "count", "lower", "setup_s on fleet"),
    ("fleet.build_s", "s", "lower", "setup_s on fleet"),
    ("fleet.warm_build_s", "s", "lower", "wall_s on fleet"),
    ("serve.batch_size_mean", "count", "higher", "predict_rps on serve"),
    ("serve.batches", "count", "lower", "predict_rps on serve"),
    ("serve.cache_hit_ratio", "ratio", "higher", "predict_p50_ms on serve"),
    ("serve.predict_server_p50_ms", "ms", "lower", "predict_p50_ms on serve"),
    ("serve.step_server_p50_ms", "ms", "lower", "step_p50_ms on serve"),
    ("serve.overloaded", "count", "lower", "fail_rate on serve"),
    ("serve.errors", "count", "lower", "fail_rate on serve"),
    ("serve.cpu_s", "s", "lower", "wall_s on serve"),
    ("serve.encode_s", "s", "lower", "none: client-side protocol cost"),
    ("serve.decode_s", "s", "lower", "none: client-side protocol cost"),
    ("loadgen.late_p99_ms", "ms", "lower", "none: validity of the open loop"),
    ("loadgen.sent", "count", "higher", "none: validity of the open loop"),
    ("loadgen.capacity_rps", "1/s", "higher", "none: closed-loop throughput on the open loop's mix"),
    ("loadgen.offered_load", "ratio", "lower", "none: open-loop rate over loadgen.capacity_rps"),
    # User-facing figures that exist on only some workloads. BENCHMARK.json
    # wants every end-to-end metric on every workload, so they are
    # reported here (see perfbench/BENCHMARK.md).
    ("fail_rate", "ratio", "lower", "none: every failure also fails the run"),
    ("pred_err_up_pct", "%", "lower", "none: accuracy, pinned by the output check"),
    ("pred_err_down_pct", "%", "lower", "none: accuracy, pinned by the output check"),
    ("predict_rps", "1/s", "higher", "wall_s on serve"),
    ("predict_p50_ms", "ms", "lower", "none: open-loop latency on serve"),
    ("predict_p99_ms", "ms", "lower", "none: open-loop latency on serve"),
    ("step_p50_ms", "ms", "lower", "none: govern latency on serve"),
    ("step_p99_ms", "ms", "lower", "none: govern latency on serve"),
    ("host.wall_s", "s", "lower", "wall_s: the same median before scaling to the reference host"),
    ("host.setup_s", "s", "lower", "setup_s: the same median before scaling to the reference host"),
    ("host.loop_ms", "ms", "lower", "none: host speed during the run (benchkit.calib)"),
    ("residual_s", "s", "lower", "wall_s: time outside every traced layer"),
    ("trace_overhead_pct", "%", "lower", "none: traced against untraced wall"),
]


def install_all() -> Tracer:
    """A tracer with every :data:`TARGETS` function wrapped."""
    tracer = Tracer()
    try:
        for name, targets in TARGETS.items():
            for target, on_result in targets:
                if tracer.install(target, name, on_result) == 0:
                    raise LookupError(f"{target} has no binding to wrap")
    except Exception:
        tracer.uninstall()
        raise
    return tracer


def collect(tracer: Tracer) -> Dict[str, Any]:
    """Span totals and counters of a rep, per root span, as JSON."""
    return {
        "layers": {root: tracer.totals(root) for root in (SETUP, JOB)},
        "counters": {root: dict(tracer.counters[root]) for root in (SETUP, JOB)},
    }


#: Metrics read from the spans under :data:`SETUP`: those that move setup_s.
SETUP_METRICS = frozenset(
    name for name, _, _, moves in PER_LAYER if moves.startswith("setup_s")
)


def root_of(span: str) -> str:
    """The root span under which ``span``'s metrics are read."""
    return SETUP if span + "_s" in SETUP_METRICS else JOB


def guard(workload: str, layers: Dict[str, Dict[str, Dict[str, float]]]) -> List[str]:
    """Layers that recorded no span on a workload they must serve."""
    return [
        name
        for name, workloads in GUARD.items()
        if workload in workloads
        and layers.get(root_of(name), {}).get(name, {}).get("calls", 0) == 0
    ]


def layer_metrics(
    layers: Dict[str, Dict[str, Dict[str, float]]],
    counters: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced rep.

    ``layers`` and ``counters`` are per root span, as :func:`collect`
    gives them.
    """
    job = _root_metrics(layers.get(JOB, {}), counters.get(JOB, {}))
    setup = _root_metrics(layers.get(SETUP, {}), counters.get(SETUP, {}))
    out = {name: (setup if name in SETUP_METRICS else job)[name] for name in job}
    # The timed job reads every profile back through ProfileStore.build.
    out["fleet.warm_build_s"] = job["fleet.build_s"]
    out["residual_s"] = layers.get(JOB, {}).get(JOB, {}).get("self_s", 0.0)
    return out


def _root_metrics(
    totals: Dict[str, Dict[str, float]], counters: Dict[str, float]
) -> Dict[str, float]:
    """The span-derived metrics of the spans under one root."""

    def self_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> float:
        return float(totals.get(name, {}).get("calls", 0))

    def total_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    events = counters.get("sim.events", 0.0)
    exp_hits = counters.get("experiments.hits", 0.0)
    exp_misses = counters.get("experiments.misses", 0.0)
    return {
        "workloads.build_s": self_s("workloads.build"),
        "jvm.gc_cycle_s": self_s("jvm.gc_cycle"),
        "jvm.gc_cycles": calls("jvm.gc_cycle"),
        "sim.simulate_s": self_s("sim.simulate"),
        "sim.simulate_calls": calls("sim.simulate"),
        "sim.managed_s": self_s("sim.managed"),
        "sim.managed_calls": calls("sim.managed"),
        "sim.events": events,
        "sim.host_us_per_event": (
            1e6 * total_s("sim.simulate", "sim.managed", "sim.batch") / events
            if events
            else 0.0
        ),
        "sim.simulated_ms": counters.get("sim.simulated_ns", 0.0) * 1e-6,
        "sim.batch_s": self_s("sim.batch"),
        "core.decompose_s": self_s("core.decompose"),
        "core.decompositions": calls("core.decompose"),
        "core.sweep_s": self_s("core.sweep"),
        "core.predict_calls": calls("core.sweep"),
        "energy.step_s": self_s("energy.step"),
        "energy.steps": calls("energy.step"),
        "energy.account_s": self_s("energy.account"),
        "experiments.cache_get_s": self_s("experiments.cache_get"),
        "experiments.cache_hits": exp_hits,
        "experiments.cache_hit_ratio": (
            exp_hits / (exp_hits + exp_misses) if exp_hits + exp_misses else 0.0
        ),
        "experiments.cache_put_s": self_s("experiments.cache_put"),
        "experiments.cache_misses": exp_misses,
        "experiments.render_s": self_s("experiments.render"),
        "store.get_s": self_s("store.get"),
        "store.hits": counters.get("store.hits", 0.0),
        "store.misses": counters.get("store.misses", 0.0),
        "store.put_s": self_s("store.put"),
        "fleet.draw_s": self_s("fleet.draw"),
        "fleet.lookup_s": self_s("fleet.lookup"),
        "fleet.lookups": calls("fleet.lookup"),
        "fleet.policy_s": self_s("fleet.policy"),
        "fleet.engine_s": self_s("fleet.engine"),
        "fleet.report_s": self_s("fleet.report"),
        "fleet.build_s": self_s("fleet.build"),
    }
