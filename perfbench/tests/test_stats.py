"""The benchmark's own arithmetic: percentiles, latency, failure counting."""

import argparse
from pathlib import Path

import pytest

from benchkit import stats


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (5000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (40, 75.0), (20, 50.0), (19, 0.0), (0, 0.0)],
)
def test_reported_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.reported_percentile(n) == expected
    if expected:
        assert n * (100 - expected) / 100 >= stats.MIN_BEYOND


def test_open_loop_latency_counts_the_wait_of_a_late_send():
    due = [0.0, 0.1, 0.2]
    # The generator stalled: request 1 went out at 0.25 and came back at 0.3.
    done = [0.05, 0.3, 0.26]
    assert stats.open_loop_latencies(due, done) == pytest.approx([0.05, 0.2, 0.06])
    with pytest.raises(ValueError):
        stats.open_loop_latencies([0.0], [])


def test_fail_rate_counts_failures_against_attempts():
    assert stats.fail_rate(200, 0) == 0.0
    assert stats.fail_rate(200, 5) == 0.025
    assert stats.fail_rate(0, 0) == 1.0


def test_run_counts_each_failed_check_at_most_once_per_attempt(tmp_path):
    import run

    args = argparse.Namespace(workload="fleet", seed=0, seconds=1, trace=0)
    r = run.Run(Path(tmp_path), args)
    r.count(10, [])
    r.count(3, ["a", "b", "c", "d"])
    assert (r.attempted, r.failed) == (13, 3)
    assert stats.fail_rate(r.attempted, r.failed) == pytest.approx(3 / 13)
