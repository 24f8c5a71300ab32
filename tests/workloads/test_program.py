"""Program containers."""

import pytest

from repro.common.errors import ConfigError
from repro.workloads.items import Allocate
from repro.workloads.program import Program, ThreadProgram, sequential_program
from tests.util import compute


def test_empty_thread_rejected():
    with pytest.raises(ConfigError):
        ThreadProgram(name="t", actions=())


def test_total_allocated_bytes():
    thread = ThreadProgram(
        name="t", actions=(compute(), Allocate(1024), Allocate(2048))
    )
    assert thread.total_allocated_bytes() == 3072


def test_program_validation():
    thread = ThreadProgram(name="t", actions=(compute(),))
    with pytest.raises(ConfigError):
        Program(name="p", threads=(), heap_bytes=1, nursery_bytes=1)
    with pytest.raises(ConfigError):
        Program(name="p", threads=(thread,), heap_bytes=100, nursery_bytes=200)
    with pytest.raises(ConfigError):
        Program(
            name="p", threads=(thread,), heap_bytes=200, nursery_bytes=100,
            survival_rate=1.5,
        )


def test_program_aggregates():
    t0 = ThreadProgram(name="a", actions=(Allocate(10), compute()))
    t1 = ThreadProgram(name="b", actions=(Allocate(20),))
    program = Program(
        name="p", threads=(t0, t1), heap_bytes=1000, nursery_bytes=100
    )
    assert program.n_threads == 2
    assert program.total_allocated_bytes() == 30


def test_sequential_program_helper():
    program = sequential_program("single", [compute()])
    assert program.n_threads == 1
    assert program.threads[0].name == "single-t0"
