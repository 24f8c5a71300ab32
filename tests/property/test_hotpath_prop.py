"""Property tests for the merged-plan hot path.

Two guarantees the fast engine rests on:

* a mid-flight DVFS rescale preserves the completed fraction of the
  in-flight segment and its final counters *exactly* — the re-anchored
  plan lands on the closed-form single-segment answer bit for bit;
* :meth:`CoreModel.time_batch_multi` is bit-identical to per-segment
  :meth:`CoreModel.time_segment` calls, including the per-cluster
  reductions around NumPy's pairwise-summation block thresholds (8, 128).
"""

from hypothesis import given, settings, strategies as st

from repro.arch.core import CoreModel
from repro.arch.segments import (
    ComputeSegment,
    MemorySegment,
    MissCluster,
    SegmentBatch,
    StoreBurstSegment,
)
from repro.arch.specs import haswell_i7_4770k
from repro.sim.run import simulate_managed
from tests.util import compute, make_program

_SPEC = haswell_i7_4770k()
_POINTS = list(_SPEC.frequencies())
_QUANTUM = 2.5e5


def _one_shot_governor(target_ghz):
    state = {"fired": False}

    def governor(record, trace):
        if state["fired"]:
            return None
        state["fired"] = True
        return target_ghz

    return governor


@given(
    insns=st.integers(min_value=2_000_000, max_value=40_000_000),
    cpi=st.sampled_from([0.4, 0.5, 0.55, 0.6, 0.8, 1.0]),
    f1=st.sampled_from(_POINTS),
    f2=st.sampled_from(_POINTS),
    engine=st.sampled_from(["fast", "classic"]),
)
@settings(max_examples=40, deadline=None)
def test_midflight_rescale_matches_closed_form(insns, cpi, f1, f2, engine):
    """Switching mid-segment re-anchors at the exact completed fraction."""
    wall1 = insns * cpi / f1
    if wall1 <= _QUANTUM * 1.05:
        return  # segment finishes before the first decision: no mid-flight
    program = make_program([[compute(insns, cpi=cpi)]])
    result = simulate_managed(
        program,
        _one_shot_governor(f2),
        initial_freq_ghz=f1,
        quantum_ns=_QUANTUM,
        engine=engine,
    )
    wall2 = insns * cpi / f2
    if f2 == f1:
        # No transition: the run is the fixed-frequency single segment.
        assert result.total_ns == wall1
    else:
        cost = _SPEC.dvfs_transition_ns
        fraction = _QUANTUM / wall1
        remaining = (1.0 - fraction) * wall2
        # Total time is the closed-form answer bit for bit; equivalently,
        # the post-switch span is exactly (1 - fraction) of the segment's
        # wall time at the new frequency — the completed fraction survived
        # the rescale.
        assert result.total_ns == _QUANTUM + cost + remaining
    # Final counters are the full single-segment counters at the final
    # frequency, exactly as the closed form prescribes.
    tid = result.trace.app_tids()[0]
    final = result.trace.final_counters()[tid]
    assert final.active_ns == (wall1 if f2 == f1 else wall2)
    assert final.insns == insns


_CLUSTER_COUNTS = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 60, 127, 128, 129, 140]


@st.composite
def _segments(draw):
    kind = draw(st.integers(min_value=0, max_value=2))
    insns = draw(st.integers(min_value=1, max_value=300_000))
    cpi = draw(st.floats(min_value=0.3, max_value=2.0, allow_nan=False))
    if kind == 0:
        return ComputeSegment(insns=insns, cpi=cpi)
    if kind == 1:
        n_clusters = draw(st.sampled_from(_CLUSTER_COUNTS))
        clusters = [
            MissCluster(
                depth=draw(st.integers(min_value=1, max_value=6)),
                chain_ns=draw(
                    st.floats(min_value=10.0, max_value=2000.0, allow_nan=False)
                ),
            )
            for _ in range(n_clusters)
        ]
        return MemorySegment.from_clusters(
            insns=insns, cpi=cpi, clusters=clusters
        )
    return StoreBurstSegment(
        n_stores=draw(st.integers(min_value=1, max_value=5000)),
        drain_ns_per_store=draw(
            st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
        ),
    )


@given(
    segments=st.lists(_segments(), min_size=1, max_size=12),
    freq_ghz=st.sampled_from(_POINTS),
)
@settings(max_examples=60, deadline=None)
def test_time_batch_bitwise_equals_time_segment(segments, freq_ghz):
    """Batched timing is bit-identical to the scalar path, per segment."""
    model = CoreModel(_SPEC)
    (batch_timing,) = model.time_batch_multi(SegmentBatch(segments), [freq_ghz])
    for i, segment in enumerate(segments):
        scalar = model.time_segment(segment, freq_ghz)
        assert batch_timing.walls[i] == scalar.wall_ns
        assert batch_timing.counters[i] == scalar.counters
