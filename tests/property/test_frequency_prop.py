"""Property: scalar and sweep paths agree on which frequencies are valid.

For any float target and base (NaN, ±inf, zero, negatives, subnormals
included) and every registered predictor, either every path — scalar
``predict_total_ns`` and ``predict_epochs``, ``TraceSweep.predict`` and
``sweep_predict_epochs`` — raises a ``ReproError``, or none does. For a
valid pair, each scalar path and its sweep twin either both raise (the
ratio overflows a double, so the predicted time is not finite) or both
return the same finite, non-negative time, bit for bit.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.core.epochs import extract_epochs
from repro.core.predictors import make_predictor, predictor_names
from repro.core.sweep import TraceSweep, sweep_predict_epochs
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


@given(
    pname=st.sampled_from(predictor_names()),
    target=st.floats(),
    base=st.floats(),
)
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing lanes
def test_every_path_raises_or_returns_the_same_time(pname, target, base):
    predictor = make_predictor(pname)
    trace, epochs = _trace(), _epochs()
    outcomes = [
        _outcome(lambda: predictor.predict_total_ns(trace, target, base)),
        _outcome(lambda: _sweep(pname).predict(predictor, [target], base)[0]),
        _outcome(lambda: predictor.predict_epochs(epochs, base, target)),
        _outcome(
            lambda: sweep_predict_epochs(predictor, epochs, base, [target])[0]
        ),
    ]
    valid = 0.0 < target < math.inf and 0.0 < base < math.inf
    if not valid:
        assert outcomes == [ReproError] * 4
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
    assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3]
    for value in outcomes:
        assert value is ReproError or 0.0 <= value < math.inf
