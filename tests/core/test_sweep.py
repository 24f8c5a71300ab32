"""Sweep engine: columnar decomposition and kernels are bit-identical.

The contract under test is exact equality (``==`` on floats), not
approximate closeness: the sweep kernels must reproduce the scalar
predictors bit for bit so cached results, golden figures and energy
manager decisions are independent of which engine produced them.
"""

import numpy as np
import pytest

from repro.common.errors import PredictionError
from repro.core.crit import crit_nonscaling
from repro.core.epochs import extract_epochs
from repro.core.predictors import get_predictor, make_predictor, predictor_names
from repro.core.sweep import (
    EpochArrays,
    TraceSweep,
    dep_window_sweep,
    estimator_key,
    sweep_predict_epochs,
)
from repro.energy.manager import interval_epochs
from repro.sim.run import simulate
from repro.workloads.registry import get_benchmark
from tests.util import barrier_program, lock_pair_program

#: Two real benchmark models plus two hand-built programs; 1 GHz base.
BENCHMARKS = ("xalan", "sunflow")
TARGETS = (0.8, 1.0, 1.3, 2.0, 2.7, 4.0)
BASE_GHZ = 1.0


@pytest.fixture(scope="module")
def benchmark_traces():
    return {
        name: simulate(get_benchmark(name, scale=0.05).program, BASE_GHZ).trace
        for name in BENCHMARKS
    }


@pytest.fixture(scope="module")
def program_traces():
    return {
        "lock_pair": simulate(lock_pair_program(), BASE_GHZ).trace,
        "barrier": simulate(barrier_program(), BASE_GHZ).trace,
    }


@pytest.fixture(scope="module")
def all_traces(benchmark_traces, program_traces):
    return {**benchmark_traces, **program_traces}


def test_columnar_decomposition_matches_extract_epochs(all_traces):
    for name, trace in all_traces.items():
        reference = extract_epochs(trace.events)
        arrays = EpochArrays.from_trace(trace)
        assert arrays.to_epochs() == reference, name


def test_columnar_fast_path_is_taken(benchmark_traces):
    # A benchmark simulation always retains columns; the gate in
    # from_trace must therefore use _from_columns, not the scalar walk.
    for name, trace in benchmark_traces.items():
        assert trace.columns is not None, name
        direct = EpochArrays._from_columns(trace.columns)
        assert direct.to_epochs() == extract_epochs(trace.events), name


def test_whole_trace_sweep_matches_scalar(all_traces):
    for name, trace in all_traces.items():
        sweep = TraceSweep(trace)
        for pname in predictor_names():
            predictor = get_predictor(pname)
            got = sweep.predict(predictor, list(TARGETS))
            want = [
                predictor.predict_total_ns(trace, t) for t in TARGETS
            ]
            assert got == want, (name, pname)


def test_window_sweep_matches_scalar(all_traces):
    for name, trace in all_traces.items():
        epochs = extract_epochs(trace.events)
        arrays = EpochArrays.from_trace(trace)
        for pname in predictor_names():
            predictor = get_predictor(pname)
            got = sweep_predict_epochs(
                predictor, arrays, BASE_GHZ, list(TARGETS)
            )
            want = [
                predictor.predict_epochs(epochs, BASE_GHZ, t)
                for t in TARGETS
            ]
            assert got == want, (name, pname)


def test_window_sweep_accepts_epoch_records(program_traces):
    trace = program_traces["lock_pair"]
    epochs = extract_epochs(trace.events)
    predictor = get_predictor("DEP+BURST")
    from_records = sweep_predict_epochs(
        predictor, epochs, BASE_GHZ, list(TARGETS)
    )
    from_arrays = sweep_predict_epochs(
        predictor, EpochArrays.from_epochs(epochs), BASE_GHZ, list(TARGETS)
    )
    assert from_records == from_arrays


def test_ctp_policy_respected(benchmark_traces):
    # Across-epoch and per-epoch CTP are distinct predictors; the sweep
    # must dispatch on the instance, not the registry name.
    trace = benchmark_traces["xalan"]
    sweep = TraceSweep(trace)
    for across in (True, False):
        predictor = make_predictor("DEP+BURST", across_epoch_ctp=across)
        got = sweep.predict(predictor, list(TARGETS))
        want = [predictor.predict_total_ns(trace, t) for t in TARGETS]
        assert got == want, across


def test_each_target_independent_of_sweep_shape(all_traces):
    # Sweeping [a, b, c] must equal three one-target sweeps: Algorithm 1
    # state is per target, never shared across targets. Each single runs
    # on a fresh sweep so the kernel (not the lane memo) answers it.
    trace = all_traces["xalan"]
    sweep = TraceSweep(trace)
    for pname in predictor_names():
        predictor = get_predictor(pname)
        batched = sweep.predict(predictor, list(TARGETS))
        singles = [
            TraceSweep(trace).predict(predictor, [t])[0] for t in TARGETS
        ]
        assert batched == singles, pname


def test_base_freq_override(program_traces):
    trace = program_traces["lock_pair"]
    predictor = get_predictor("DEP+BURST")
    got = TraceSweep(trace).predict(predictor, [2.0], base_freq_ghz=1.5)
    want = [predictor.predict_total_ns(trace, 2.0, base_freq_ghz=1.5)]
    assert got == want


def test_empty_epochs():
    predictor = get_predictor("DEP+BURST")
    assert sweep_predict_epochs(predictor, [], BASE_GHZ, [2.0, 4.0]) == [
        0.0,
        0.0,
    ]


def test_invalid_frequency_raises(program_traces):
    trace = program_traces["lock_pair"]
    arrays = EpochArrays.from_trace(trace)
    predictor = get_predictor("DEP+BURST")
    with pytest.raises(PredictionError):
        sweep_predict_epochs(predictor, arrays, BASE_GHZ, [2.0, -1.0])
    with pytest.raises(PredictionError):
        sweep_predict_epochs(predictor, arrays, 0.0, [2.0])


def test_estimator_key_known_estimators():
    for name in predictor_names():
        predictor = get_predictor(name)
        if hasattr(predictor, "estimator"):
            assert estimator_key(predictor.estimator) is not None, name


def test_unknown_estimator_falls_back(program_traces):
    # A hand-rolled estimator has no vector kernel; the dispatcher must
    # run it through the scalar path rather than guess.
    trace = program_traces["lock_pair"]
    epochs = extract_epochs(trace.events)
    base = get_predictor("DEP")

    def odd_estimator(counters):
        return counters.active_ns * 0.5

    predictor = type(base)(
        name="DEP+ODD",
        estimator=odd_estimator,
        across_epoch_ctp=base.across_epoch_ctp,
    )
    assert estimator_key(odd_estimator) is None
    got = sweep_predict_epochs(predictor, epochs, BASE_GHZ, list(TARGETS))
    want = [predictor.predict_epochs(epochs, BASE_GHZ, t) for t in TARGETS]
    assert got == want


def test_decomposed_cache_reused(program_traces):
    trace = program_traces["barrier"]
    arrays = EpochArrays.from_trace(trace)
    predictor = get_predictor("DEP+BURST")
    first = arrays.decomposed(predictor.estimator)
    second = arrays.decomposed(predictor.estimator)
    assert first[0] is second[0] and first[1] is second[1]


def test_arrays_are_float64(benchmark_traces):
    arrays = EpochArrays.from_trace(benchmark_traces["xalan"])
    for field in ("wall", "crit", "leading", "stall", "sqfull"):
        assert getattr(arrays, field).dtype == np.float64, field


# ----------------------------------------------------------------------
# Heterogeneous targets: (core_freq, uncore_scale) tuples
# ----------------------------------------------------------------------


def test_split_target_shapes():
    from repro.core.sweep import split_target, split_targets

    assert split_target(2.0) == (2.0, 1.0)
    assert split_target((2.0, 1.5)) == (2.0, 1.5)
    assert split_target([2.0, 0.5]) == (2.0, 0.5)
    with pytest.raises(PredictionError):
        split_target((2.0,))
    with pytest.raises(PredictionError):
        split_target((2.0, 1.5, 1.0))
    with pytest.raises(PredictionError):
        split_target((2.0, 0.0))
    with pytest.raises(PredictionError):
        split_target((2.0, -1.0))
    # All-homogeneous lists collapse to the legacy (freqs, None) gate.
    assert split_targets([1.0, (2.0, 1.0)]) == ([1.0, 2.0], None)
    freqs, uncore = split_targets([1.0, (2.0, 1.5)])
    assert freqs == [1.0, 2.0]
    assert uncore == [1.0, 1.5]


def test_unit_uncore_tuples_bit_identical_to_floats(benchmark_traces):
    trace = benchmark_traces["xalan"]
    tuples = [(target, 1.0) for target in TARGETS]
    for name in predictor_names():
        predictor = make_predictor(name)
        plain = TraceSweep(trace).predict(predictor, list(TARGETS))
        tupled = TraceSweep(trace).predict(predictor, tuples)
        assert tupled == plain, name


@pytest.mark.parametrize("uncore_scale", (0.5, 2.0))
def test_uncore_sweep_matches_scalar_predictors(
    benchmark_traces, uncore_scale
):
    trace = benchmark_traces["sunflow"]
    tuples = [(target, uncore_scale) for target in TARGETS]
    for name in predictor_names():
        predictor = make_predictor(name)
        swept = TraceSweep(trace).predict(predictor, tuples)
        scalar = [
            predictor.predict_total_ns(
                trace, target, uncore_scale=uncore_scale
            )
            for target in TARGETS
        ]
        assert swept == scalar, name


def test_mixed_uncore_lanes_are_per_lane_identical(benchmark_traces):
    # A single sweep mixing homogeneous and heterogeneous lanes must
    # reproduce each lane's dedicated evaluation bit for bit (the mixed
    # kernel multiplies the homogeneous lanes by exactly 1.0).
    trace = benchmark_traces["xalan"]
    mixed = [2.0, (2.0, 2.0), (3.0, 1.0), (3.0, 0.5)]
    for name in predictor_names():
        predictor = make_predictor(name)
        values = TraceSweep(trace).predict(predictor, mixed)
        solo = [
            TraceSweep(trace).predict(predictor, [target])[0]
            for target in mixed
        ]
        assert values == solo, name


def test_epoch_sweep_accepts_tuples(benchmark_traces):
    epochs = extract_epochs(benchmark_traces["xalan"].events)
    arrays = EpochArrays.from_epochs(epochs)
    predictor = make_predictor("DEP+BURST")
    tupled = sweep_predict_epochs(
        predictor, arrays, BASE_GHZ, [(t, 1.5) for t in TARGETS]
    )
    scalar = [
        predictor.predict_epochs(epochs, BASE_GHZ, t, uncore_scale=1.5)
        for t in TARGETS
    ]
    assert tupled == scalar
    # Every window kernel (DEP, and M+CRIT/COOP's phase kernel) takes
    # plain and (f, uncore) lanes in one call, over the whole trace and
    # over each governor interval's window.
    targets = [t for f in TARGETS for t in (f, (f, 0.5), (f, 1.0), (f, 2.0))]
    lanes = [(f, u) for f in TARGETS for u in (1.0, 0.5, 1.0, 2.0)]
    for pname in predictor_names():
        predictor = make_predictor(pname)
        for name, trace in benchmark_traces.items():
            windows = [extract_epochs(trace.events)] + [
                interval_epochs(record, trace) for record in trace.intervals
            ]
            for i, window in enumerate(windows):
                swept = sweep_predict_epochs(
                    predictor, window, BASE_GHZ, targets
                )
                scalar = [
                    predictor.predict_epochs(
                        window, BASE_GHZ, f, uncore_scale=u
                    )
                    for f, u in lanes
                ]
                assert swept == scalar, (pname, name, i)


# ----------------------------------------------------------------------
# Lane memo: each (predictor identity, target) is evaluated once
# ----------------------------------------------------------------------

#: Floats and (freq, uncore) tuples; (2.0, 1.0) is the same lane as 2.0.
LANE_TARGETS = (0.8, (1.3, 2.0), 2.0, (2.0, 1.0), (2.7, 0.5), 4.0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Targets handed to each sweep kernel, per kernel, in call order."""
    calls = {"dep": [], "mcrit": [], "coop": []}
    dep = TraceSweep._dep_fold
    mcrit = TraceSweep._mcrit_sweep
    coop = TraceSweep._coop_sweep

    def counting_dep(self, predictor, base, identity, pending):
        calls["dep"].append(list(pending.values()))
        return dep(self, predictor, base, identity, pending)

    def counting_mcrit(self, predictor, base, targets):
        calls["mcrit"].append(list(targets))
        return mcrit(self, predictor, base, targets)

    def counting_coop(self, predictor, base, targets):
        calls["coop"].append(list(targets))
        return coop(self, predictor, base, targets)

    monkeypatch.setattr(TraceSweep, "_dep_fold", counting_dep)
    monkeypatch.setattr(TraceSweep, "_mcrit_sweep", counting_mcrit)
    monkeypatch.setattr(TraceSweep, "_coop_sweep", counting_coop)
    return calls


def _n_kernel_calls(calls):
    return sum(len(made) for made in calls.values())


def _scalar(predictor, trace, target, base=None):
    freq, uncore = target if isinstance(target, tuple) else (target, 1.0)
    return predictor.predict_total_ns(
        trace, freq, base_freq_ghz=base, uncore_scale=uncore
    )


def test_lane_memo_any_call_shape_matches_fresh_and_scalar(benchmark_traces):
    trace = benchmark_traces["xalan"]
    targets = list(LANE_TARGETS)
    shapes = (
        targets[:2],
        targets[4:2:-1],  # reordered
        targets[:2],  # exact repeat
        [targets[5], targets[0], targets[5], targets[2], targets[3]],
        targets[::-1] + targets,  # whole list, duplicated in-call
    )
    sweep = TraceSweep(trace)
    for pname in predictor_names():
        predictor = make_predictor(pname)
        fresh = dict(
            zip(targets, TraceSweep(trace).predict(predictor, targets))
        )
        scalar = {t: _scalar(predictor, trace, t) for t in targets}
        assert fresh == scalar, pname
        for shape in shapes:
            got = sweep.predict(predictor, shape)
            assert got == [fresh[t] for t in shape], (pname, shape)


def test_lane_memo_evaluates_each_lane_once(benchmark_traces, kernel_calls):
    sweep = TraceSweep(benchmark_traces["xalan"])
    for pname in predictor_names():
        predictor = make_predictor(pname)
        sweep.predict(predictor, [2.0, 3.0, 2.0, (2.0, 1.0), (3.0, 0.5)])
        sweep.predict(predictor, [(3.0, 0.5), 4.0, 3.0, 4.0])
        sweep.predict(predictor, [4.0, 2.0, (3.0, 0.5)])
    # Per predictor: one call with the de-duplicated first-seen lanes,
    # one call for the single new lane, none for the pure repeat.
    assert kernel_calls["dep"] == [[2.0, 3.0, (3.0, 0.5)], [4.0]] * 2
    assert kernel_calls["mcrit"] == [[2.0, 3.0, (3.0, 0.5)], [4.0]] * 2
    assert kernel_calls["coop"] == [[2.0, 3.0, (3.0, 0.5)], [4.0]] * 2


def test_ctp_policy_and_burst_never_share_lanes(
    benchmark_traces, kernel_calls
):
    trace = benchmark_traces["xalan"]
    targets = list(LANE_TARGETS)
    sweep = TraceSweep(trace)
    variants = [
        make_predictor("DEP", across_epoch_ctp=True),
        make_predictor("DEP", across_epoch_ctp=False),
        make_predictor("DEP+BURST", across_epoch_ctp=True),
        make_predictor("DEP+BURST", across_epoch_ctp=False),
        make_predictor("M+CRIT"),
        make_predictor("M+CRIT+BURST"),
        make_predictor("COOP"),
        make_predictor("COOP+BURST"),
    ]
    for predictor in variants:
        before = _n_kernel_calls(kernel_calls)
        got = sweep.predict(predictor, targets)
        # A lane shared with an earlier variant would skip the kernel.
        assert _n_kernel_calls(kernel_calls) == before + 1, predictor.name
        assert got == TraceSweep(trace).predict(predictor, targets)
    # The variants really differ, so sharing would have been visible.
    dep_across = sweep.predict(variants[0], targets)
    assert dep_across != sweep.predict(variants[1], targets)
    assert dep_across != sweep.predict(variants[2], targets)


def test_default_base_shares_lanes_other_base_does_not(
    program_traces, kernel_calls
):
    trace = program_traces["lock_pair"]
    sweep = TraceSweep(trace)
    for pname in predictor_names():
        predictor = make_predictor(pname)
        default = sweep.predict(predictor, list(LANE_TARGETS))
        before = _n_kernel_calls(kernel_calls)
        own = sweep.predict(
            predictor, list(LANE_TARGETS), base_freq_ghz=trace.base_freq_ghz
        )
        assert own == default, pname
        assert _n_kernel_calls(kernel_calls) == before, pname
        other = sweep.predict(predictor, list(LANE_TARGETS), base_freq_ghz=1.5)
        assert _n_kernel_calls(kernel_calls) == before + 1, pname
        assert other == [
            _scalar(predictor, trace, t, base=1.5) for t in LANE_TARGETS
        ], pname


def test_unrecognized_predictors_are_evaluated_every_call(program_traces):
    from repro.core.dep import DepPredictor
    from repro.core.mcrit import MCritPredictor

    trace = program_traces["lock_pair"]
    sweep = TraceSweep(trace)

    class CountingPredictor:
        calls = 0

        def predict_total_ns(self, trace, target, base_freq_ghz=None):
            CountingPredictor.calls += 1
            return 1000.0 * target

    class CountingDep(DepPredictor):
        calls = 0

        def predict_total_ns(self, *args, **kwargs):
            CountingDep.calls += 1
            return super().predict_total_ns(*args, **kwargs)

    estimator_calls = []

    def half_active(counters):
        estimator_calls.append(1)
        return counters.active_ns * 0.5

    for predictor, count in (
        (CountingPredictor(), lambda: CountingPredictor.calls),
        (CountingDep(estimator=crit_nonscaling), lambda: CountingDep.calls),
        (DepPredictor(estimator=half_active), lambda: len(estimator_calls)),
        (MCritPredictor(estimator=half_active), lambda: len(estimator_calls)),
    ):
        first = sweep.predict(predictor, [2.0, 3.0])
        seen = count()
        assert seen > 0
        assert sweep.predict(predictor, [2.0, 3.0]) == first
        assert count() > seen, type(predictor).__name__
        assert first == [
            predictor.predict_total_ns(trace, t) for t in (2.0, 3.0)
        ]


def test_invalid_target_raises_after_lanes_are_cached(program_traces):
    trace = program_traces["lock_pair"]
    sweep = TraceSweep(trace)
    for pname in predictor_names():
        predictor = make_predictor(pname)
        cached = sweep.predict(predictor, [2.0, (3.0, 0.5)])
        for bad in ([2.0, -1.0], [(3.0, 0.5), (2.0, 0.0)], [2.0, (2.0,)]):
            with pytest.raises(PredictionError):
                sweep.predict(predictor, bad)
        with pytest.raises(PredictionError):
            sweep.predict(predictor, [2.0], base_freq_ghz=0.0)
        assert sweep.predict(predictor, [2.0, (3.0, 0.5)]) == cached, pname


# ----------------------------------------------------------------------
# Lane grid: expected DEP lanes fold with the first DEP miss
# ----------------------------------------------------------------------

#: Grid lanes: plain floats and (freq, uncore) pairs.
GRID_TARGETS = (0.8, 1.0, 2.0, (2.0, 2.0), (2.7, 0.5), 4.0)


def _dep_grid(across=True):
    return [
        (make_predictor(name, across_epoch_ctp=across), list(GRID_TARGETS))
        for name in ("DEP", "DEP+BURST")
    ]


def test_grid_lanes_fold_once_and_equal_a_solo_sweep(
    all_traces, kernel_calls
):
    for name, trace in all_traces.items():
        for across in (True, False):
            grid = _dep_grid(across)
            sweep = TraceSweep(trace, grid=grid)
            asked = make_predictor("DEP+BURST", across_epoch_ctp=across)
            before = len(kernel_calls["dep"])
            sweep.predict(asked, [3.0])
            # The miss folds its own lane and every grid lane; asking
            # for any grid lane afterwards runs no fold.
            for predictor, targets in grid:
                got = sweep.predict(predictor, targets)
                solo = [
                    dep_window_sweep(
                        predictor, EpochArrays.from_trace(trace),
                        trace.base_freq_ghz, [t],
                    )[0]
                    for t in targets
                ]
                assert got == solo, (name, across, predictor.name)
            assert len(kernel_calls["dep"]) == before + 1, (name, across)


def test_grid_folds_only_the_same_policy_and_base(
    program_traces, kernel_calls
):
    trace = program_traces["lock_pair"]
    sweep = TraceSweep(trace, grid=_dep_grid(across=True))
    per = make_predictor("DEP", across_epoch_ctp=False)
    across = make_predictor("DEP", across_epoch_ctp=True)
    sweep.predict(per, [2.0])
    sweep.predict(across, [2.0], base_freq_ghz=1.5)
    assert kernel_calls["dep"] == [[2.0], [2.0]]
    # The grid is still unanswered: this miss folds all of it.
    sweep.predict(across, [3.0])
    for predictor, targets in _dep_grid(across=True):
        sweep.predict(predictor, targets)
    assert kernel_calls["dep"] == [[2.0], [2.0], [3.0]]


def test_non_finite_grid_lane_raises_only_when_requested(program_traces):
    trace = program_traces["lock_pair"]
    overflow = 5e-324  # scaling * base / 5e-324 overflows a double
    predictor = make_predictor("DEP")
    sweep = TraceSweep(trace, grid=[(predictor, [2.0, overflow])])
    assert sweep.predict(predictor, [3.0]) == TraceSweep(trace).predict(
        predictor, [3.0]
    )
    assert sweep.predict(predictor, [2.0]) == [
        predictor.predict_total_ns(trace, 2.0)
    ]
    with pytest.raises(PredictionError):
        sweep.predict(predictor, [overflow])


def test_grid_rejects_what_it_cannot_fold(program_traces):
    trace = program_traces["lock_pair"]
    with pytest.raises(PredictionError):
        TraceSweep(trace, grid=[(make_predictor("M+CRIT"), [2.0])])
    with pytest.raises(PredictionError):
        TraceSweep(trace, grid=[(make_predictor("DEP"), [-1.0])])
