"""COOP predictor: phase splitting."""

import pytest

from repro.common.errors import PredictionError
from repro.core.coop import CoopPredictor, split_phases
from repro.sim.run import simulate
from tests.util import allocating_program, lock_pair_program


def test_split_phases_alternate_and_tile():
    trace = simulate(allocating_program(), 1.0).trace
    phases = split_phases(trace)
    assert phases[0].kind == "app"
    gc_phases = [p for p in phases if p.kind == "gc"]
    assert len(gc_phases) == trace.gc_cycles
    covered = sum(p.duration_ns for p in phases)
    assert covered == pytest.approx(trace.total_ns, rel=1e-9)
    for a, b in zip(phases, phases[1:]):
        assert b.start_ns == pytest.approx(a.end_ns)


def test_gc_phase_duration_matches_trace():
    trace = simulate(allocating_program(), 1.0).trace
    phases = split_phases(trace)
    gc_time = sum(p.duration_ns for p in phases if p.kind == "gc")
    assert gc_time == pytest.approx(trace.gc_time_ns, rel=1e-9)


def test_no_gc_single_app_phase():
    trace = simulate(lock_pair_program(), 1.0).trace
    phases = split_phases(trace)
    assert len(phases) == 1
    assert phases[0].kind == "app"


def test_identity_at_base_frequency():
    program = allocating_program()
    result = simulate(program, 2.0)
    predicted = CoopPredictor().predict_total_ns(result.trace, 2.0)
    assert predicted == pytest.approx(result.total_ns, rel=0.02)


def test_coop_beats_mcrit_on_gc_heavy_program():
    from repro.core.mcrit import MCritPredictor

    program = allocating_program(allocations=16, nursery_mb=4)
    base = simulate(program, 1.0)
    actual = simulate(program, 4.0).total_ns
    coop_err = abs(
        CoopPredictor().predict_total_ns(base.trace, 4.0) / actual - 1
    )
    mcrit_err = abs(
        MCritPredictor().predict_total_ns(base.trace, 4.0) / actual - 1
    )
    assert coop_err <= mcrit_err + 0.01


def test_malformed_gc_markers_rejected():
    from repro.sim.trace import EventKind, TraceEvent

    trace = simulate(lock_pair_program(), 1.0).trace
    # A simulated trace's events are a read-only view; edit a list copy.
    trace.events = [
        *trace.events,
        TraceEvent(
            time_ns=trace.total_ns, tid=-1, kind=EventKind.GC_END,
            freq_ghz=1.0, running_after=(), snapshots={},
        ),
    ]
    with pytest.raises(PredictionError):
        split_phases(trace)
