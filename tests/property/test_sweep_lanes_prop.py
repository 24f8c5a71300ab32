"""Property: the sweep lane memo never changes a prediction.

However a target list is split across calls, reordered, repeated or
duplicated within a call, every value a shared :class:`TraceSweep`
returns equals a fresh sweep's single call and the scalar
``predict_total_ns``, bit for bit.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.predictors import make_predictor, predictor_names
from repro.core.sweep import TraceSweep
from repro.sim.run import simulate
from tests.util import lock_pair_program

#: Candidate lanes: plain floats and (freq, uncore) tuples, including a
#: unit-scale tuple that names the same lane as its float.
POOL = (0.8, 1.3, 2.0, 4.0, (2.0, 1.0), (1.3, 2.0), (2.7, 0.5), (4.0, 2.0))


@lru_cache(maxsize=None)
def _trace():
    return simulate(lock_pair_program(), 1.0).trace


@lru_cache(maxsize=None)
def _scalar(pname, target):
    freq, uncore = target if isinstance(target, tuple) else (target, 1.0)
    return make_predictor(pname).predict_total_ns(
        _trace(), freq, uncore_scale=uncore
    )


@lru_cache(maxsize=None)
def _fresh(pname):
    targets = list(POOL)
    values = TraceSweep(_trace()).predict(make_predictor(pname), targets)
    return dict(zip(targets, values))


calls = st.lists(
    st.lists(st.sampled_from(POOL), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
)


@given(pname=st.sampled_from(predictor_names()), shapes=calls)
@settings(max_examples=60, deadline=None)
def test_any_call_shape_matches_fresh_and_scalar(pname, shapes):
    sweep = TraceSweep(_trace())
    predictor = make_predictor(pname)
    fresh = _fresh(pname)
    for shape in shapes:
        got = sweep.predict(predictor, shape)
        assert got == [fresh[t] for t in shape]
        assert got == [_scalar(pname, t) for t in shape]
