"""DEP+BURST: DVFS performance prediction for managed multithreaded applications.

A from-scratch reproduction of Akram, Sartor & Eeckhout, *DVFS Performance
Prediction for Managed Multithreaded Applications* (ISPASS 2016): a
segment-level multicore simulator with a managed-runtime model (substrate),
the DEP+BURST predictor family (contribution), and a slack-bounded energy
manager (case study).

Quick start::

    from repro import get_benchmark, simulate, make_predictor

    bundle = get_benchmark("xalan", scale=0.1)
    base = simulate(bundle.program, freq_ghz=1.0,
                    jvm_config=bundle.jvm_config, gc_model=bundle.gc_model)
    actual = simulate(bundle.program, freq_ghz=4.0,
                      jvm_config=bundle.jvm_config, gc_model=bundle.gc_model)
    predictor = make_predictor("DEP+BURST")
    predicted_ns = predictor.predict_total_ns(base.trace, 4.0)
    error = predicted_ns / actual.total_ns - 1.0
"""

from repro.common.lazy import lazy_exports

__version__ = "1.0.0"

# Re-exports load on first access, so an entry point that needs none of
# them (``repro-serve``) never imports the simulator.
__getattr__ = lazy_exports(__name__, {
    "repro.core.predictors": ("get_predictor", "make_predictor", "predictor_names"),
    "repro.core.evaluate": ("prediction_error",),
    "repro.sim.run": ("SimulationResult", "simulate", "simulate_managed"),
    "repro.workloads.registry": ("BenchmarkBundle", "benchmark_names", "get_benchmark"),
})

__all__ = [
    "BenchmarkBundle",
    "SimulationResult",
    "__version__",
    "benchmark_names",
    "get_benchmark",
    "get_predictor",
    "make_predictor",
    "prediction_error",
    "predictor_names",
    "simulate",
    "simulate_managed",
]
