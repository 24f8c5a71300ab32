"""Event queue."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import EventQueue


def test_pops_in_time_order():
    queue = EventQueue()
    queue.push(30.0, "c")
    queue.push(10.0, "a")
    queue.push(20.0, "b")
    assert [queue.pop()[2] for _ in range(3)] == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    queue = EventQueue()
    queue.push(5.0, "first")
    queue.push(5.0, "second")
    assert queue.pop()[2] == "first"
    assert queue.pop()[2] == "second"


def test_clock_advances_monotonically():
    queue = EventQueue()
    queue.push(10.0, "a")
    queue.pop()
    assert queue.now_ns == 10.0
    queue.push(10.0, "b")  # same time is allowed
    queue.pop()
    assert queue.now_ns == 10.0


def test_push_in_past_rejected():
    queue = EventQueue()
    queue.push(10.0, "a")
    queue.pop()
    with pytest.raises(SimulationError):
        queue.push(5.0, "late")


def test_empty_pop_returns_none():
    queue = EventQueue()
    assert queue.pop() is None
    assert not queue
    queue.push(1.0, "x")
    assert queue and len(queue) == 1


def test_invalidated_token_is_dropped_without_moving_the_clock():
    queue = EventQueue()
    queue.push(5.0, ("seg", 3, 1))
    queue.push(8.0, ("seg", 3, 2))
    queue.invalidate(3, 2)
    time_ns, _, payload = queue.pop()
    assert (time_ns, payload) == (8.0, ("seg", 3, 2))
    assert queue.now_ns == 8.0
    assert queue.pop() is None


def test_revoked_event_time_is_never_reached():
    queue = EventQueue()
    queue.push(9.0, ("timer", 4, 1))
    queue.invalidate(4, 2)
    queue.push(3.0, ("timer", 4, 2))
    assert queue.pop()[2] == ("timer", 4, 2)
    assert queue.now_ns == 3.0
    assert queue.pop() is None
    assert queue.now_ns == 3.0
