"""Static-optimal oracle."""

import pytest

from repro.common.errors import ConfigError
from repro.energy.static_oracle import static_optimal


def sweep():
    # freq -> (total_ns, energy_j): slower is cheaper here.
    return {
        4.0: (100.0, 40.0),
        3.0: (106.0, 30.0),
        2.0: (125.0, 22.0),
        1.0: (180.0, 18.0),
    }


def test_picks_cheapest_within_bound():
    result = static_optimal(sweep(), tolerable_slowdown=0.10, max_freq_ghz=4.0)
    assert result.freq_ghz == 3.0
    assert result.energy_saving == pytest.approx(0.25)
    assert result.slowdown == pytest.approx(0.06)


def test_wider_bound_picks_lower_frequency():
    result = static_optimal(sweep(), tolerable_slowdown=0.30, max_freq_ghz=4.0)
    assert result.freq_ghz == 2.0


def test_zero_bound_stays_at_max():
    result = static_optimal(sweep(), tolerable_slowdown=0.0, max_freq_ghz=4.0)
    assert result.freq_ghz == 4.0
    assert result.energy_saving == 0.0


def test_non_monotone_energy_handled():
    runs = dict(sweep())
    runs[3.0] = (106.0, 45.0)  # pathological: slower AND pricier
    result = static_optimal(runs, tolerable_slowdown=0.06, max_freq_ghz=4.0)
    assert result.freq_ghz == 4.0


def test_missing_baseline_rejected():
    with pytest.raises(ConfigError):
        static_optimal({1.0: (1.0, 1.0)}, 0.1, max_freq_ghz=4.0)
    with pytest.raises(ConfigError):
        static_optimal(sweep(), -0.1, max_freq_ghz=4.0)


# ----------------------------------------------------------------------
# predicted_static_optimal: the simulate-once variant
# ----------------------------------------------------------------------


def _predicted_fixture():
    from repro.arch.specs import haswell_i7_4770k
    from repro.energy.power import PowerModel
    from repro.sim.run import simulate
    from tests.util import lock_pair_program

    trace = simulate(lock_pair_program(), 4.0).trace
    return trace, PowerModel(haswell_i7_4770k())


def test_predicted_oracle_matches_manual_sweep():
    from repro.core.predictors import make_predictor
    from repro.core.sweep import TraceSweep
    from repro.energy.static_oracle import predicted_static_optimal

    trace, power = _predicted_fixture()
    freqs = (1.0, 2.0, 3.0)
    result = predicted_static_optimal(trace, power, freqs, 0.5, max_freq_ghz=4.0)
    # Reconstruct the expected runs table by hand from the same sweep.
    predictor = make_predictor("DEP+BURST")
    targets = [1.0, 2.0, 3.0, 4.0]
    predictions = TraceSweep(trace).predict(predictor, targets)
    aggregate = None
    for counters in trace.final_counters().values():
        if aggregate is None:
            aggregate = counters.copy()
        else:
            aggregate.add(counters)
    runs = {
        freq: (ns, power.interval_energy_j(aggregate, ns, freq))
        for freq, ns in zip(targets, predictions)
    }
    expected = static_optimal(runs, 0.5, max_freq_ghz=4.0)
    assert result == expected
    assert result.freq_ghz in targets


def test_predicted_oracle_zero_bound_stays_at_max():
    from repro.energy.static_oracle import predicted_static_optimal

    trace, power = _predicted_fixture()
    result = predicted_static_optimal(
        trace, power, (1.0, 2.0), 0.0, max_freq_ghz=4.0
    )
    assert result.freq_ghz == 4.0
    assert result.slowdown == 0.0
    assert result.energy_saving == 0.0


def test_predicted_oracle_custom_predictor():
    from repro.core.predictors import make_predictor
    from repro.energy.static_oracle import predicted_static_optimal

    trace, power = _predicted_fixture()
    depburst = predicted_static_optimal(
        trace, power, (1.0, 2.0, 3.0), 0.5, max_freq_ghz=4.0
    )
    explicit = predicted_static_optimal(
        trace,
        power,
        (1.0, 2.0, 3.0),
        0.5,
        max_freq_ghz=4.0,
        predictor=make_predictor("DEP+BURST"),
    )
    assert depburst == explicit


def test_predicted_oracle_rejects_counterless_trace():
    from repro.energy.static_oracle import predicted_static_optimal
    from repro.sim.trace import SimulationTrace

    trace, power = _predicted_fixture()
    empty = SimulationTrace(program_name="empty", base_freq_ghz=4.0)
    with pytest.raises(ConfigError):
        predicted_static_optimal(empty, power, (1.0,), 0.5, max_freq_ghz=4.0)



def test_predicted_oracle_accepts_a_shared_sweep(monkeypatch):
    from repro.core import sweep as sweep_mod
    from repro.energy.static_oracle import predicted_static_optimal

    trace, power = _predicted_fixture()
    freqs = (1.0, 2.0, 3.0)
    thresholds = (0.5, 0.1, 0.5)
    expected = [
        predicted_static_optimal(trace, power, freqs, t, max_freq_ghz=4.0)
        for t in thresholds
    ]
    shared = sweep_mod.TraceSweep(trace)
    shared.arrays  # decomposed up front, as a runner's shared sweep is
    decompositions = []
    from_trace = sweep_mod.EpochArrays.from_trace

    def counting_from_trace(trace):
        decompositions.append(trace)
        return from_trace(trace)

    monkeypatch.setattr(
        sweep_mod.EpochArrays, "from_trace", staticmethod(counting_from_trace)
    )
    got = [
        predicted_static_optimal(shared, power, freqs, t, max_freq_ghz=4.0)
        for t in thresholds
    ]
    assert got == expected
    assert decompositions == []
