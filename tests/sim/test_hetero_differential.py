"""Differential proof: the hetero layer leaves the legacy path untouched.

PR 9's heterogeneous axes (per-cluster frequency domains, tech-node V/f
tables, uncore scaling) are all gated: a homogeneous single-cluster
topology with the legacy i7-4770K table must reproduce the pre-hetero
engine *byte for byte* on every observable surface — serialized traces,
extracted epochs, predictor outputs and manager decision streams — and
``(f, 1.0)`` target tuples must be bit-identical to plain frequency
targets for every predictor. The genuinely heterogeneous paths are
pinned separately: sweep-vs-scalar parity on ``(f, uncore)`` tuples and
deterministic big.LITTLE managed runs.
"""

import json

import pytest

from repro.arch.clusters import big_little, homogeneous
from repro.arch.specs import haswell_i7_4770k
from repro.core.epochs import extract_epochs
from repro.core.predictors import make_predictor, predictor_names
from repro.core.sweep import TraceSweep
from repro.energy.manager import (
    ClusterManager,
    EnergyManager,
    ManagerConfig,
    interval_epochs,
)
from repro.serve.sessions import decision_log_bytes
from repro.sim.run import simulate, simulate_managed
from repro.sim.serialize import trace_to_dict
from repro.workloads.registry import get_benchmark
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    build_synthetic_program,
)

_QUANTUM = 2.0e5
_UNCORE_SCALES = (0.5, 1.5, 2.0)


def _serialized(trace) -> bytes:
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


def _build_families():
    return {
        "xalan": get_benchmark("xalan", scale=0.02).program,
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
    """Per family: (legacy EnergyManager run, ClusterManager run)."""
    runs = {}
    for name, program in families.items():
        legacy = EnergyManager(spec)
        legacy_result = simulate_managed(
            program, legacy, spec=spec, quantum_ns=_QUANTUM
        )
        cluster = ClusterManager(homogeneous(spec))
        cluster_result = simulate_managed(
            program, cluster, spec=spec, quantum_ns=_QUANTUM
        )
        runs[name] = (legacy, legacy_result, cluster, cluster_result)
    return runs


# ----------------------------------------------------------------------
# Single-domain identity: ClusterManager(homogeneous) is the old engine
# ----------------------------------------------------------------------


def test_single_domain_uses_the_legacy_delegate(spec):
    manager = ClusterManager(homogeneous(spec))
    assert manager._legacy is not None


def test_matrix_trace_bytes_identical(matrix):
    for name, (_, legacy_result, _, cluster_result) in matrix.items():
        assert _serialized(cluster_result.trace) == _serialized(
            legacy_result.trace
        ), name


def test_matrix_epochs_identical(matrix):
    for name, (_, legacy_result, _, cluster_result) in matrix.items():
        assert extract_epochs(cluster_result.trace.events) == extract_epochs(
            legacy_result.trace.events
        ), name


def test_matrix_decision_streams_identical(matrix):
    for name, (legacy, _, cluster, _) in matrix.items():
        assert len(legacy.decisions) > 0, name
        assert decision_log_bytes(cluster.decisions) == decision_log_bytes(
            legacy.decisions
        ), name


def test_matrix_predictor_outputs_identical(matrix, spec):
    targets = spec.frequencies()[::8]
    for name, (_, legacy_result, _, cluster_result) in matrix.items():
        for predictor_name in predictor_names():
            predictor = make_predictor(predictor_name)
            legacy_predictions = [
                predictor.predict_total_ns(legacy_result.trace, t)
                for t in targets
            ]
            cluster_predictions = [
                predictor.predict_total_ns(cluster_result.trace, t)
                for t in targets
            ]
            assert cluster_predictions == legacy_predictions, (
                name, predictor_name,
            )


def test_identity_holds_under_nondefault_manager_config(families, spec):
    config = ManagerConfig(
        tolerable_slowdown=0.10, hold_off=2, slack_banking=True,
        objective="min-edp",
    )
    program = families["synth_gc"]
    legacy = EnergyManager(spec, config)
    legacy_result = simulate_managed(
        program, legacy, spec=spec, quantum_ns=_QUANTUM
    )
    cluster = ClusterManager(homogeneous(spec), config)
    cluster_result = simulate_managed(
        program, cluster, spec=spec, quantum_ns=_QUANTUM
    )
    assert _serialized(cluster_result.trace) == _serialized(legacy_result.trace)
    assert list(cluster.decisions) == list(legacy.decisions)


def test_identity_holds_on_the_classic_engine(families, spec):
    program = families["synth_mem"]
    legacy = EnergyManager(spec)
    legacy_result = simulate_managed(
        program, legacy, spec=spec, quantum_ns=_QUANTUM, engine="classic"
    )
    cluster = ClusterManager(homogeneous(spec))
    cluster_result = simulate_managed(
        program, cluster, spec=spec, quantum_ns=_QUANTUM, engine="classic"
    )
    assert _serialized(cluster_result.trace) == _serialized(legacy_result.trace)
    assert list(cluster.decisions) == list(legacy.decisions)


# ----------------------------------------------------------------------
# Target tuples: (f, 1.0) is bit-identical to f; (f, u) matches scalar
# ----------------------------------------------------------------------


def test_unit_scale_tuples_bit_identical_to_floats(families, spec):
    program = families["xalan"]
    trace = simulate(program, 1.0, spec=spec, quantum_ns=_QUANTUM).trace
    targets = spec.frequencies()[::6]
    for predictor_name in predictor_names():
        predictor = make_predictor(predictor_name)
        plain = TraceSweep(trace).predict(predictor, targets)
        tupled = TraceSweep(trace).predict(
            predictor, [(t, 1.0) for t in targets]
        )
        assert tupled == plain, predictor_name


@pytest.mark.parametrize("uncore_scale", _UNCORE_SCALES)
def test_hetero_sweep_matches_scalar_uncore_path(families, spec, uncore_scale):
    program = families["synth_mem"]
    trace = simulate(program, 1.0, spec=spec, quantum_ns=_QUANTUM).trace
    targets = spec.frequencies()[::6]
    for predictor_name in predictor_names():
        predictor = make_predictor(predictor_name)
        swept = TraceSweep(trace).predict(
            predictor, [(t, uncore_scale) for t in targets]
        )
        scalar = [
            predictor.predict_total_ns(trace, t, uncore_scale=uncore_scale)
            for t in targets
        ]
        assert swept == scalar, predictor_name


def test_uncore_slowdown_is_monotone(families, spec):
    # A slower uncore (larger scale) can only inflate the memory/stall
    # portion: predictions are non-decreasing in the uncore scale.
    program = families["synth_gc"]
    trace = simulate(program, 1.0, spec=spec, quantum_ns=_QUANTUM).trace
    predictor = make_predictor("DEP+BURST")
    for target in (2.0, 4.0):
        predictions = [
            predictor.predict_total_ns(trace, target, uncore_scale=u)
            for u in (0.5, 1.0, 1.5, 2.0)
        ]
        assert predictions == sorted(predictions)
        assert predictions[0] < predictions[-1]


# ----------------------------------------------------------------------
# Genuinely heterogeneous: big.LITTLE managed runs
# ----------------------------------------------------------------------


def test_big_little_run_is_deterministic(families, spec):
    program = families["synth_gc"]
    renderings = []
    decision_logs = []
    for _ in range(2):
        manager = ClusterManager(big_little(spec))
        result = simulate_managed(
            program, manager, spec=spec, quantum_ns=_QUANTUM,
            per_core_dvfs=True,
        )
        renderings.append(_serialized(result.trace))
        decision_logs.append(decision_log_bytes(manager.decisions))
    assert renderings[0] == renderings[1]
    assert decision_logs[0] == decision_logs[1]


def test_big_little_rescale_keeps_epoch_deltas_nonnegative(spec):
    # Regression: _change_core_frequencies used to emit the FREQ_CHANGE
    # boundary event *before* rescaling the occupant's plan, so the epoch
    # opening at the switch timestamp kept the stale pre-rescale snapshot;
    # when a cluster's set point rose, the re-timed segment's counters
    # shrank below it and the next epoch's deltas went negative (the sweep
    # kernel then rejects the window). lusearch's phase mix trips this
    # within a few hundred quanta.
    program = get_benchmark("lusearch", scale=0.02).program
    manager = ClusterManager(big_little(spec))
    result = simulate_managed(
        program, manager, spec=spec, quantum_ns=_QUANTUM, per_core_dvfs=True
    )
    assert len(manager.decisions) > 0
    for record in result.trace.intervals:
        for epoch in interval_epochs(record, result.trace):
            for tid, delta in epoch.thread_deltas.items():
                assert delta.active_ns >= 0.0, (record.index, epoch.index, tid)
                assert delta.crit_ns >= 0.0, (record.index, epoch.index, tid)
                assert delta.stall_ns >= 0.0, (record.index, epoch.index, tid)


def test_big_little_respects_cluster_ladders(families, spec):
    program = families["xalan"]
    topology = big_little(spec)
    manager = ClusterManager(topology)
    simulate_managed(
        program, manager, spec=spec, quantum_ns=_QUANTUM, per_core_dvfs=True
    )
    assert manager._legacy is None
    for cluster in topology.clusters:
        allowed = set(cluster.supported_frequencies())
        for decision in manager.cluster_decisions[cluster.name]:
            if decision.chosen_freq_ghz is not None:
                assert decision.chosen_freq_ghz in allowed, cluster.name
