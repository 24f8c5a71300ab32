"""Property: the multi-lane CTP fold equals the scalar fold per lane.

:func:`~repro.core.sweep.ctp_total_multi` folds per-epoch CTP as two
array operations (a max ``reduceat`` per epoch, then a ``cumsum`` down
the epochs) and across-epoch CTP as a sequential loop over all lanes.
Either way every lane must equal a scalar
:func:`~repro.core.sweep.ctp_total` run over that lane's column, bit for
bit, including epochs with no running thread, epochs with one, and
epochs whose threads tie.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.sweep import ctp_total, ctp_total_multi

#: A few shared values make ties within an epoch (and across lanes) likely.
values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1e6]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)


@st.composite
def folds(draw):
    """``(epoch_meta, predicted)``: 0-4 threads per epoch, 1-5 lanes."""
    n_lanes = draw(st.integers(min_value=1, max_value=5))
    meta = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        tids = tuple(draw(st.permutations(range(4)))[: draw(
            st.sampled_from([0, 0, 1, 1, 2, 3, 4])
        )])
        duration = draw(values)
        stall = draw(st.sampled_from((None,) + tids))
        meta.append((tids, duration, stall))
    n_entries = sum(len(tids) for tids, _, _ in meta)
    flat = draw(
        st.lists(values, min_size=n_entries * n_lanes,
                 max_size=n_entries * n_lanes)
    )
    predicted = np.array(flat, dtype=np.float64).reshape(n_entries, n_lanes)
    return meta, predicted


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


@given(fold=folds(), across=st.booleans())
@settings(max_examples=200, deadline=None)
def test_every_lane_equals_the_scalar_fold(fold, across):
    meta, predicted = fold
    totals = ctp_total_multi(iter(meta), predicted, across)
    assert totals.shape == (predicted.shape[1],)
    for lane in range(predicted.shape[1]):
        scalar = ctp_total(meta, predicted[:, lane].tolist(), across)
        assert _bits(totals[lane]) == _bits(scalar), (lane, across)
