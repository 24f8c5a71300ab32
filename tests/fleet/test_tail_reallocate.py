"""The optimized tail reallocation against its original (tests/fleet/tail_oracle).

Both functions get the same running set, built twice; every running
tenant must end on the same candidate. The strategies aim at the places
where a faster rewrite can drift:

* random running sets, inserted in random order (the floor power is
  summed in insertion order);
* candidate power lists that are not monotone in frequency (the
  cheapest raise need not be candidate 1);
* equal projected slowdowns, which must break on the sequence number;
* headroom landing exactly on the slackened cap
  ``cap_w * (1 + _CAP_REL_EPS)``: powers are multiples of 1/4, so every
  headroom sum is exact, and ``cap_w`` is solved so that the slackened
  cap is one of those sums.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.fleet import engine
from repro.fleet.engine import _CAP_REL_EPS, _power_table, _tail_reallocate
from repro.fleet.policy import Candidate
from tests.fleet import tail_oracle

NOW_NS = 5.0e6


def cap_w_for(target: float):
    """A ``cap_w`` whose slackened cap is exactly ``target`` (or None)."""
    cap_w = target / (1.0 + _CAP_REL_EPS)
    for _ in range(8):
        got = cap_w * (1.0 + _CAP_REL_EPS)
        if got == target:
            return cap_w
        cap_w = math.nextafter(cap_w, math.inf if got < target else -math.inf)
    return None


#: Few distinct values, so equal projected slowdowns are common.
_tied = st.fixed_dictionaries(
    {
        "work": st.sampled_from([0.25, 0.5, 1.0]),
        "duration_ns": st.sampled_from([1.0e6, 2.0e6, 4.0e6]),
        "arrival_ns": st.sampled_from([0.0, 1.0e6, 2.0e6]),
        "baseline_ns": st.sampled_from([1.0e6, 2.0e6]),
    }
)
_spread = st.fixed_dictionaries(
    {
        "work": st.floats(min_value=1e-6, max_value=1.0),
        "duration_ns": st.floats(min_value=1.0e3, max_value=1.0e9),
        "arrival_ns": st.floats(min_value=0.0, max_value=NOW_NS),
        "baseline_ns": st.floats(min_value=1.0e3, max_value=1.0e9),
    }
)
#: Quarter-watt powers: sums of up to a few dozen stay exact.
_quarter_watts = st.integers(min_value=1, max_value=400).map(lambda q: q / 4.0)
_any_watts = st.floats(min_value=0.0, max_value=200.0)


@st.composite
def tenant(draw, shape, watts):
    row = draw(shape)
    powers = draw(st.lists(watts, min_size=1, max_size=8))
    durations = [
        row["duration_ns"] * draw(st.floats(min_value=0.25, max_value=1.0))
        for _ in powers[1:]
    ]
    row["cands"] = [
        Candidate(freq_index=j, duration_ns=duration, power_w=power)
        for j, (duration, power) in enumerate(
            zip([row["duration_ns"]] + durations, powers)
        )
    ]
    return row


@st.composite
def fleets(draw):
    shape = draw(st.sampled_from([_tied, _spread]))
    exact = draw(st.booleans())
    rows = draw(
        st.lists(
            tenant(shape, _quarter_watts if exact else _any_watts),
            max_size=12,
        )
    )
    seqs = draw(st.permutations(range(len(rows))))
    if exact:
        # A slackened cap that some quarter-watt headroom sum hits.
        target = draw(st.integers(min_value=1, max_value=1600)) / 4.0
        cap_w = cap_w_for(target)
        assume(cap_w is not None)
    else:
        cap_w = draw(st.floats(min_value=1.0, max_value=800.0))
    return rows, seqs, cap_w


def _build(rows, seqs, make):
    running = {}
    for seq, row in zip(seqs, rows):
        run = make(seq, row["cands"])
        run.work = row["work"]
        running[seq] = run
    arrivals = [0.0] * len(rows)
    baselines = [1.0] * len(rows)
    for seq, row in zip(seqs, rows):
        arrivals[seq] = row["arrival_ns"]
        baselines[seq] = row["baseline_ns"]
    return running, arrivals, baselines


def _assignments(rows, seqs, cap_w):
    old, arrivals, baselines = _build(
        rows, seqs, lambda seq, cands: tail_oracle._Running(seq, list(cands), 0.0)
    )
    new, _, _ = _build(
        rows,
        seqs,
        lambda seq, cands: engine._Running(
            seq, tuple(cands), _power_table(cands), 0.0
        ),
    )
    # A stale assignment from an earlier event must not leak through.
    for run in list(old.values()) + list(new.values()):
        run.cand = len(run.cands) - 1
    tail_oracle._tail_reallocate(old, cap_w, NOW_NS, arrivals, baselines)
    _tail_reallocate(new, cap_w, NOW_NS, arrivals, baselines)
    return (
        {seq: run.cand for seq, run in old.items()},
        {seq: run.cand for seq, run in new.items()},
    )


@given(fleet=fleets())
@settings(max_examples=400, deadline=None)
def test_reallocation_matches_the_original(fleet):
    want, got = _assignments(*fleet)
    assert got == want


def test_headroom_exactly_on_the_cap_is_taken():
    cap_w = cap_w_for(10.0)
    assert cap_w is not None
    cands = [
        Candidate(freq_index=0, duration_ns=2.0e6, power_w=4.0),
        Candidate(freq_index=1, duration_ns=1.5e6, power_w=10.0),
        Candidate(freq_index=2, duration_ns=1.0e6, power_w=math.nextafter(10.0, 11.0)),
    ]
    rows = [{"work": 1.0, "arrival_ns": 0.0, "baseline_ns": 1.0e6, "cands": cands}]
    want, got = _assignments(rows, [0], cap_w)
    assert got == want == {0: 1}


def test_equal_slowdowns_break_on_sequence_number():
    # Two identical tenants, budget for one raise: the lower seq gets it,
    # whatever the insertion order.
    cands = [
        Candidate(freq_index=0, duration_ns=2.0e6, power_w=5.0),
        Candidate(freq_index=1, duration_ns=1.0e6, power_w=9.0),
    ]
    row = {"work": 0.5, "arrival_ns": 1.0e6, "baseline_ns": 2.0e6, "cands": cands}
    cap_w = cap_w_for(14.0)
    for seqs in ([0, 1], [1, 0]):
        want, got = _assignments([dict(row), dict(row)], seqs, cap_w)
        assert got == want == {0: 1, 1: 0}
