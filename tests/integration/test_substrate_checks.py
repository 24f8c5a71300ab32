"""Invariant checks over the actual benchmark models (miniature scale)."""

import pytest

from repro import get_benchmark, simulate
from repro.sim.checks import check_trace
from tests.util import check_cross_frequency


@pytest.mark.parametrize("name", ["xalan", "avrora"])
def test_benchmark_traces_hold_all_invariants(name):
    bundle = get_benchmark(name, scale=0.03)
    result = simulate(
        bundle.program, 1.0, jvm_config=bundle.jvm_config,
        gc_model=bundle.gc_model,
    )
    assert check_trace(result.trace, n_cores=bundle.spec.n_cores) == []


def test_benchmark_cross_frequency_conservation():
    bundle = get_benchmark("pmd_scale", scale=0.03)
    violations = check_cross_frequency(
        bundle.program, (1.0, 4.0),
        jvm_config=bundle.jvm_config, gc_model=bundle.gc_model,
    )
    assert violations == []
