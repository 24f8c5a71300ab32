"""Differential proof: the fast engine is bit-identical to the classic one.

The merged-plan engine (``engine="fast"``) must be indistinguishable from
the per-segment engine (``engine="classic"``, the pre-optimization
semantics) in everything observable: serialized traces compare byte for
byte on two benchmarks and one GC-free, lock-free program at two
frequencies, and an energy-manager run reproduces the identical decision
sequence, frequency trajectory, and serialized trace.
"""

import json

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.energy.manager import EnergyManager
from repro.sim.run import simulate, simulate_managed
from repro.sim.serialize import trace_to_dict
from repro.sim.trace import EventKind
from repro.workloads.dacapo import dacapo_jvm_config
from repro.workloads.registry import get_benchmark
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

_SCALE = 0.02
_QUANTUM = 2.0e5

#: No allocation (no GC), no critical sections, and three application
#: threads plus the JIT thread exactly fill the four cores, so the
#: scheduler never oversubscribes and plans run at the full merge limit.
_FILL_CORES = SyntheticWorkloadConfig(
    name="hotpath_stress", seed=212, n_threads=3, n_units=40,
    unit_insns=200_000, unit_insns_cv=0.3, cpi=0.55,
    clusters_per_kinsn=0.02, chain_depth_mean=1.6, chain_locality=0.5,
    alloc_bytes_per_unit=0, cs_probability=0.0, barrier_period=2000,
    phase_amplitude=0.4, phase_periods=6.0, memory_skew=0.2,
    heap_mb=64, nursery_mb=16, survival_rate=0.1,
)


def _workload(name):
    """(program, JVM config) of a DaCapo model or the fill-cores program."""
    if name == _FILL_CORES.name:
        return build_synthetic_program(_FILL_CORES), None
    return get_benchmark(name, scale=_SCALE).program, dacapo_jvm_config(name)


def _serialized(trace) -> bytes:
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


@pytest.mark.parametrize(
    "bench_name", ["xalan", "lusearch", _FILL_CORES.name]
)
@pytest.mark.parametrize("freq_ghz", [1.0, 3.5])
def test_serialized_traces_byte_identical(bench_name, freq_ghz):
    runs = {}
    for engine in ("fast", "classic"):
        program, jvm_config = _workload(bench_name)
        runs[engine] = simulate(
            program,
            freq_ghz,
            jvm_config=jvm_config,
            quantum_ns=_QUANTUM,
            engine=engine,
        )
    assert runs["fast"].total_ns == runs["classic"].total_ns
    assert _serialized(runs["fast"].trace) == _serialized(runs["classic"].trace)


def test_energy_manager_decision_sequence_identical():
    jvm_config = dacapo_jvm_config("xalan")
    traces = {}
    decisions = {}
    for engine in ("fast", "classic"):
        manager = EnergyManager(spec=haswell_i7_4770k())
        result = simulate_managed(
            get_benchmark("xalan", scale=_SCALE).program,
            manager,
            jvm_config=jvm_config,
            quantum_ns=_QUANTUM,
            engine=engine,
        )
        traces[engine] = result.trace
        decisions[engine] = manager.decisions
    assert decisions["fast"] == decisions["classic"]
    assert len(decisions["fast"]) > 0
    for engine_events in zip(
        traces["fast"].events, traces["classic"].events
    ):
        fast_event, classic_event = engine_events
        if fast_event.kind is EventKind.FREQ_CHANGE:
            assert classic_event.kind is EventKind.FREQ_CHANGE
            assert fast_event.time_ns == classic_event.time_ns
            assert fast_event.detail == classic_event.detail
    assert _serialized(traces["fast"]) == _serialized(traces["classic"])
