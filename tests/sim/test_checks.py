"""Physical-invariant checks."""

import copy

import pytest

from repro.sim.checks import (
    check_capacity,
    check_counter_monotonicity,
    check_epoch_tiling,
    check_gc_balance,
    check_trace,
)
from repro.sim.run import simulate
from repro.sim.trace import EventKind, TraceEvent
from tests.util import (
    allocating_program,
    barrier_program,
    check_cross_frequency,
    lock_pair_program,
)


@pytest.fixture(scope="module")
def gc_trace():
    return simulate(allocating_program(), 1.0).trace


def test_clean_traces_pass_everything(gc_trace):
    assert check_trace(gc_trace) == []
    assert check_trace(simulate(lock_pair_program(), 2.0).trace) == []
    assert check_trace(simulate(barrier_program(), 4.0).trace) == []


def test_gc_balance_detects_missing_end(gc_trace):
    mutated = copy.copy(gc_trace)
    mutated.events = [
        e for e in gc_trace.events if e.kind is not EventKind.GC_END
    ]
    assert check_gc_balance(mutated)


def test_monotonicity_detects_regression(gc_trace):
    mutated = copy.copy(gc_trace)
    mutated.events = list(gc_trace.events)
    # Re-emit the first snapshot-bearing event at the end: cumulative
    # counters appear to go backwards.
    for event in gc_trace.events:
        if event.snapshots:
            mutated.events.append(
                TraceEvent(
                    time_ns=gc_trace.total_ns,
                    tid=event.tid if event.tid >= 0 else 0,
                    kind=EventKind.DISPATCH,
                    freq_ghz=1.0,
                    running_after=event.running_after,
                    snapshots=event.snapshots,
                )
            )
            break
    assert check_counter_monotonicity(mutated)


def test_tiling_detects_truncated_trace(gc_trace):
    mutated = copy.copy(gc_trace)
    mutated.events = gc_trace.events[: len(gc_trace.events) // 2]
    assert check_epoch_tiling(mutated)


def test_capacity_passes_on_real_runs(gc_trace):
    assert check_capacity(gc_trace) == []


def test_cross_frequency_conservation():
    assert check_cross_frequency(allocating_program(), (1.0, 2.0, 4.0)) == []


def test_cli_verify_subcommand(tmp_path, capsys):
    from repro.sim.cli import main
    from repro.sim.serialize import save_trace

    trace = simulate(lock_pair_program(), 1.0).trace
    path = tmp_path / "t.json.gz"
    save_trace(trace, path)
    assert main(["verify", str(path)]) == 0
    assert "all invariants hold" in capsys.readouterr().out
