"""Differential proof: batched simulation is bit-identical to solo runs.

The oracle chain is batched → fast → classic: the batched engine must
reproduce the single-instance fast engine byte for byte, and the fast
engine's identity with the per-segment classic engine is pinned
separately (``tests/sim/test_engine_differential.py``, here re-checked
on the same matrix). Identity is compared on every observable surface
the issue names: serialized trace bytes, extracted epochs, predictor
outputs, and energy-manager decision streams — across four workload
families × two frequencies × ragged batch shapes (1, 2, 32,
mixed-length), plus the degenerate cases (size-1 batches, duplicate
instances, mixed engines rejected).
"""

import json

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.core.epochs import extract_epochs
from repro.core.predictors import make_predictor, predictor_names
from repro.energy.manager import EnergyManager
from repro.sim.batch import BatchInstance, run_batch, simulate_batch
from repro.sim.run import simulate, simulate_managed
from repro.sim.serialize import trace_to_dict
from repro.workloads.registry import get_benchmark
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

_QUANTUM = 2.0e5
_FREQS = (1.0, 3.5)


def _serialized(trace) -> bytes:
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


def _build_families():
    """Four workload families: two DaCapo models, two synthetic shapes.

    ``synth_gc`` allocates (live GC cycles, so the shared store's
    cycle-segment warm/evict path runs inside a batch); ``synth_mem`` is
    allocation-free but lock- and barrier-laden.
    """
    return {
        "xalan": get_benchmark("xalan", scale=0.02).program,
        "lusearch": get_benchmark("lusearch", scale=0.02).program,
        "synth_gc": build_synthetic_program(
            SyntheticWorkloadConfig(
                name="synth_gc",
                seed=7,
                n_threads=3,
                n_units=24,
                unit_insns=40_000,
                clusters_per_kinsn=1.2,
                alloc_bytes_per_unit=262_144,
                alloc_every=2,
                cs_probability=0.3,
                nursery_mb=2,
                heap_mb=32,
                survival_rate=0.3,
            )
        ),
        "synth_mem": build_synthetic_program(
            SyntheticWorkloadConfig(
                name="synth_mem",
                seed=19,
                n_threads=2,
                n_units=30,
                unit_insns=60_000,
                clusters_per_kinsn=2.0,
                chain_depth_mean=2.5,
                alloc_bytes_per_unit=0,
                cs_probability=0.2,
                barrier_period=6,
                nursery_mb=2,
                heap_mb=32,
            )
        ),
    }


@pytest.fixture(scope="module")
def families():
    return _build_families()


@pytest.fixture(scope="module")
def spec():
    return haswell_i7_4770k()


@pytest.fixture(scope="module")
def matrix(families, spec):
    """One batched run of the full family × frequency grid."""
    instances = [
        BatchInstance(
            program=program, freq_ghz=freq, spec=spec, quantum_ns=_QUANTUM,
            label=f"{name}@{freq}",
        )
        for name, program in families.items()
        for freq in _FREQS
    ]
    return instances, simulate_batch(instances)


# ----------------------------------------------------------------------
# The matrix: batched vs fast vs classic on every surface
# ----------------------------------------------------------------------


def test_matrix_trace_bytes_match_fast_and_classic(matrix, spec):
    instances, batched = matrix
    for instance, result in zip(instances, batched):
        fast = simulate(
            instance.program, instance.freq_ghz, spec=spec,
            quantum_ns=_QUANTUM,
        )
        classic = simulate(
            instance.program, instance.freq_ghz, spec=spec,
            quantum_ns=_QUANTUM, engine="classic",
        )
        batched_bytes = _serialized(result.trace)
        assert batched_bytes == _serialized(fast.trace), instance.label
        assert batched_bytes == _serialized(classic.trace), instance.label


def test_matrix_epochs_match_single_instance(matrix, spec):
    instances, batched = matrix
    for instance, result in zip(instances, batched):
        solo = simulate(
            instance.program, instance.freq_ghz, spec=spec,
            quantum_ns=_QUANTUM,
        )
        assert extract_epochs(result.trace.events) == extract_epochs(
            solo.trace.events
        ), instance.label


def test_matrix_predictor_outputs_match_single_instance(matrix, spec):
    instances, batched = matrix
    targets = [freq for freq in spec.frequencies()[::8]]
    for instance, result in zip(instances, batched):
        solo = simulate(
            instance.program, instance.freq_ghz, spec=spec,
            quantum_ns=_QUANTUM,
        )
        for name in predictor_names():
            predictor = make_predictor(name)
            batched_predictions = [
                predictor.predict_total_ns(result.trace, target)
                for target in targets
            ]
            solo_predictions = [
                predictor.predict_total_ns(solo.trace, target)
                for target in targets
            ]
            assert batched_predictions == solo_predictions, (
                instance.label, name,
            )


@pytest.mark.parametrize("family", ["xalan", "synth_gc"])
def test_governor_decision_stream_matches_both_engines(
    families, spec, family
):
    program = families[family]
    streams = {}
    traces = {}
    for mode in ("batched", "fast", "classic"):
        manager = EnergyManager(spec)
        if mode == "batched":
            result = simulate_batch(
                [
                    BatchInstance(
                        program=program, governor=manager, spec=spec,
                        quantum_ns=_QUANTUM,
                    )
                ]
            )[0]
        else:
            result = simulate_managed(
                program, manager, spec=spec, quantum_ns=_QUANTUM,
                engine=mode,
            )
        streams[mode] = list(manager.decisions)
        traces[mode] = _serialized(result.trace)
    assert streams["batched"] == streams["fast"] == streams["classic"]
    assert len(streams["batched"]) > 0
    assert traces["batched"] == traces["fast"] == traces["classic"]


# ----------------------------------------------------------------------
# Ragged batch shapes
# ----------------------------------------------------------------------


def test_shape_single_instance_batch(families, spec):
    program = families["lusearch"]
    batched = simulate_batch(
        [
            BatchInstance(
                program=program, freq_ghz=2.0, spec=spec,
                quantum_ns=_QUANTUM,
            )
        ]
    )
    solo = simulate(program, 2.0, spec=spec, quantum_ns=_QUANTUM)
    assert _serialized(batched[0].trace) == _serialized(solo.trace)


def test_shape_pair_with_duplicates(families, spec):
    program = families["synth_mem"]
    batched = simulate_batch(
        [
            BatchInstance(
                program=program, freq_ghz=2.0, spec=spec,
                quantum_ns=_QUANTUM,
            )
            for _ in range(2)
        ]
    )
    solo = simulate(program, 2.0, spec=spec, quantum_ns=_QUANTUM)
    solo_bytes = _serialized(solo.trace)
    assert _serialized(batched[0].trace) == solo_bytes
    assert _serialized(batched[1].trace) == solo_bytes


def test_shape_32_lane_batch(families, spec):
    # 4 families × 2 frequencies × 4 replicas: the pinned corpus size,
    # with heavy lane duplication and every group sharing one store.
    instances = [
        BatchInstance(
            program=program, freq_ghz=freq, spec=spec, quantum_ns=_QUANTUM,
            label=f"{name}@{freq}#{replica}",
        )
        for replica in range(4)
        for name, program in families.items()
        for freq in _FREQS
    ]
    assert len(instances) == 32
    report = run_batch(instances)
    assert report.groups == 4
    solo_bytes = {
        (id(instance.program), instance.freq_ghz): _serialized(
            simulate(
                instance.program, instance.freq_ghz, spec=spec,
                quantum_ns=_QUANTUM,
            ).trace
        )
        for instance in instances
    }
    for instance, result in zip(instances, report.results):
        key = (id(instance.program), instance.freq_ghz)
        assert _serialized(result.trace) == solo_bytes[key], instance.label


def test_shape_mixed_length_lanes(families, spec):
    # Ragged lanes: programs of very different lengths in one batch, so
    # short lanes park long before the longest one finishes.
    instances = [
        BatchInstance(
            program=families[name], freq_ghz=freq, spec=spec,
            quantum_ns=_QUANTUM, label=f"{name}@{freq}",
        )
        for name, freq in (
            ("synth_gc", 1.0),
            ("xalan", 4.0),
            ("synth_mem", 1.0),
            ("lusearch", 2.0),
        )
    ]
    batched = simulate_batch(instances)
    totals = [result.total_ns for result in batched]
    assert max(totals) > 2 * min(totals)  # genuinely ragged
    for instance, result in zip(instances, batched):
        solo = simulate(
            instance.program, instance.freq_ghz, spec=spec,
            quantum_ns=_QUANTUM,
        )
        assert _serialized(result.trace) == _serialized(solo.trace)


def test_mixed_engines_rejected_with_config_error(families, spec):
    program = families["synth_mem"]
    with pytest.raises(ConfigError, match="single engine"):
        simulate_batch(
            [
                BatchInstance(program=program, freq_ghz=2.0, spec=spec),
                BatchInstance(
                    program=program, freq_ghz=2.0, spec=spec,
                    engine="classic",
                ),
            ]
        )
