"""Property: scalar and sweep paths agree on which frequencies are valid.

For any float target and base (NaN, ±inf, zero, negatives, subnormals
included) and every registered predictor, either every path — scalar
``predict_total_ns`` and ``predict_epochs``, ``TraceSweep.predict``,
``sweep_predict_epochs`` and the serve batcher's
``evaluate_predict_jobs`` — raises a ``ReproError``, or none does. The
epoch paths run over a window: any slice of the trace's epochs (empty
slices included) or one epoch no thread ran in. For a valid pair, each
scalar path and its sweep twins either all raise (the ratio overflows a
double, so the predicted time is not finite) or all return the same
finite, non-negative time, bit for bit.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.core.epochs import Epoch, extract_epochs
from repro.core.predictors import make_predictor, predictor_names
from repro.core.sweep import TraceSweep, sweep_predict_epochs
from repro.core.vectorized import PredictJob, evaluate_predict_jobs
from repro.sim.run import simulate
from tests.util import lock_pair_program


@lru_cache(maxsize=None)
def _trace():
    return simulate(lock_pair_program(), 1.0).trace


@lru_cache(maxsize=None)
def _epochs():
    return extract_epochs(_trace().events)


@lru_cache(maxsize=None)
def _sweep(pname):
    # One sweep per predictor across examples, so invalid inputs also
    # meet a lane memo that already holds valid answers.
    return TraceSweep(_trace())


def _outcome(call):
    try:
        return call()
    except ReproError:
        return ReproError


#: A window no thread ran in: every model keeps its measured 100 ns.
THREADLESS = (
    Epoch(
        index=0, start_ns=0.0, end_ns=100.0, thread_deltas={},
        stall_tid=None, during_gc=False,
    ),
)


def _window(data):
    if data.draw(st.booleans(), label="threadless"):
        return list(THREADLESS)
    n = len(_epochs())
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(0, n), label="hi")
    return _epochs()[lo:hi]


@given(
    pname=st.sampled_from(predictor_names()),
    target=st.floats(),
    base=st.floats(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing lanes
def test_every_path_raises_or_returns_the_same_time(pname, target, base, data):
    predictor = make_predictor(pname)
    trace, window = _trace(), _window(data)
    job = PredictJob(predictor, window, base, (target,))
    outcomes = [
        _outcome(lambda: predictor.predict_total_ns(trace, target, base)),
        _outcome(lambda: _sweep(pname).predict(predictor, [target], base)[0]),
        _outcome(lambda: predictor.predict_epochs(window, base, target)),
        _outcome(
            lambda: sweep_predict_epochs(predictor, window, base, [target])[0]
        ),
        _outcome(lambda: evaluate_predict_jobs([job])[0][0]),
    ]
    valid = 0.0 < target < math.inf and 0.0 < base < math.inf
    if not valid:
        assert outcomes == [ReproError] * 5
        return
    # Every prediction is at most total * base / target + total, computed
    # as (time * base) / target. Where no step can overflow, no path may
    # refuse a valid pair.
    bound = 2.0 * trace.total_ns * base
    if math.isfinite(bound) and math.isfinite(bound / target):
        assert ReproError not in outcomes
    # Whole-trace and epoch-window semantics differ for M+CRIT and COOP;
    # each scalar path must match its sweep twin bit for bit, including
    # the verdict: a ratio that overflows a double raises on both.
    assert outcomes[0] == outcomes[1]
    assert outcomes[2] == outcomes[3] == outcomes[4]
    for value in outcomes:
        assert value is ReproError or 0.0 <= value < math.inf
