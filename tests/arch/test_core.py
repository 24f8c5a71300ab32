"""Core timing model: scaling, overlap, counters."""

import dataclasses

import pytest

from repro.arch.core import CoreModel
from repro.arch.dram import DramConfig
from repro.arch.segments import ComputeSegment, MemorySegment, MissCluster, StoreBurstSegment
from repro.arch.specs import MachineSpec, haswell_i7_4770k


def make_core(kappa=0.0):
    spec = MachineSpec(dram=DramConfig(queue_freq_sensitivity_per_ghz=kappa))
    return CoreModel(spec)


def test_compute_scales_exactly_with_frequency():
    core = make_core()
    seg = ComputeSegment(insns=4000, cpi=0.5)
    t1 = core.time_segment(seg, 1.0)
    t4 = core.time_segment(seg, 4.0)
    assert t1.wall_ns == pytest.approx(2000.0)
    assert t4.wall_ns == pytest.approx(500.0)
    assert t1.counters.insns == 4000
    assert t1.counters.crit_ns == 0.0


def test_memory_chain_does_not_scale():
    core = make_core()
    big_chain = 5000.0  # much larger than any hide window
    seg = MemorySegment.from_clusters(
        insns=1000, cpi=0.5, clusters=[MissCluster(1, big_chain)]
    )
    t1 = core.time_segment(seg, 1.0)
    t4 = core.time_segment(seg, 4.0)
    # The chain latency itself is frequency-invariant: what scales is the
    # compute minus the (also frequency-scaled) overlap hidden under the
    # chain. wall(f) = (compute_cycles - hide_cycles)/f + chain.
    spec = core.spec
    hide_cycles = int(spec.core.rob_entries * spec.core.rob_hide_fraction) * 0.5
    scaling_cycles = 1000 * 0.5 - hide_cycles
    assert t1.wall_ns == pytest.approx(scaling_cycles / 1.0 + big_chain)
    assert t4.wall_ns == pytest.approx(scaling_cycles / 4.0 + big_chain)


def test_crit_counter_records_full_chain():
    core = make_core()
    seg = MemorySegment.from_clusters(
        insns=1000, cpi=0.5,
        clusters=[MissCluster(2, 150.0), MissCluster(1, 60.0)],
    )
    t = core.time_segment(seg, 1.0)
    assert t.counters.crit_ns == pytest.approx(210.0)
    assert t.counters.leading_ns == pytest.approx(75.0 + 60.0)


def test_overlap_hides_short_chains_at_low_frequency():
    core = make_core()
    spec = core.spec
    hide_1ghz = spec.core.rob_entries * spec.core.rob_hide_fraction * 0.5 / 1.0
    short_chain = hide_1ghz * 0.9
    seg = MemorySegment.from_clusters(
        insns=100_000, cpi=0.5, clusters=[MissCluster(1, short_chain)]
    )
    t1 = core.time_segment(seg, 1.0)
    # Fully hidden: wall equals pure compute time.
    assert t1.wall_ns == pytest.approx(100_000 * 0.5)
    # At 4 GHz the hide window shrinks 4x: part of the chain is exposed.
    t4 = core.time_segment(seg, 4.0)
    assert t4.wall_ns > 100_000 * 0.5 / 4


def test_stall_counter_below_crit():
    core = make_core()
    seg = MemorySegment.from_clusters(
        insns=2000, cpi=0.5, clusters=[MissCluster(1, 300.0)]
    )
    t = core.time_segment(seg, 2.0)
    assert 0.0 < t.counters.stall_ns < t.counters.crit_ns


def test_queue_sensitivity_raises_latency_with_frequency():
    core = make_core(kappa=0.05)
    seg = MemorySegment.from_clusters(
        insns=100, cpi=0.5, clusters=[MissCluster(1, 1000.0)]
    )
    c1 = core.time_segment(seg, 1.0).counters.crit_ns
    c4 = core.time_segment(seg, 4.0).counters.crit_ns
    assert c1 == pytest.approx(1000.0)
    assert c4 == pytest.approx(1000.0 * 1.15)


def test_store_burst_counters():
    core = CoreModel(haswell_i7_4770k())
    seg = StoreBurstSegment(n_stores=4096, drain_ns_per_store=1.5)
    t = core.time_segment(seg, 4.0)
    assert t.counters.stores == 4096
    assert t.counters.sqfull_ns > 0
    assert t.counters.crit_ns == 0.0  # invisible to CRIT
    assert t.wall_ns == t.counters.active_ns


def test_unknown_segment_rejected():
    core = make_core()
    with pytest.raises(Exception):
        core.time_segment(object(), 1.0)


def test_active_ns_equals_wall_for_all_kinds():
    core = make_core()
    segments = [
        ComputeSegment(insns=100, cpi=0.5),
        MemorySegment.from_clusters(100, 0.5, [MissCluster(1, 90.0)]),
        StoreBurstSegment(n_stores=500, drain_ns_per_store=1.0),
    ]
    for seg in segments:
        timing = core.time_segment(seg, 2.0)
        assert timing.counters.active_ns == pytest.approx(timing.wall_ns)


# ----------------------------------------------------------------------
# Multi-frequency batch timing (time_batch_multi)
# ----------------------------------------------------------------------


def _mixed_segments(n_memory=40, rng_seed=5):
    """Compute + store + memory segments with small and large clusters."""
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    segments = [
        ComputeSegment(insns=3000, cpi=0.4),
        ComputeSegment(insns=9000, cpi=0.7),
        StoreBurstSegment(n_stores=2048, drain_ns_per_store=1.2),
        StoreBurstSegment(n_stores=64, drain_ns_per_store=0.2),
        MemorySegment.from_clusters(2000, 0.5, []),  # clusterless memory
    ]
    for i in range(n_memory):
        # Mix group sizes across the small (<8) and contiguous (>=8)
        # summation paths of the batch kernel.
        n_clusters = int(rng.integers(1, 20))
        clusters = [
            MissCluster(int(rng.integers(1, 5)), float(rng.uniform(40, 400)))
            for _ in range(n_clusters)
        ]
        segments.append(
            MemorySegment.from_clusters(
                insns=int(rng.integers(500, 20_000)),
                cpi=float(rng.uniform(0.3, 1.0)),
                clusters=clusters,
            )
        )
    return segments


def test_time_batch_multi_bitwise_matches_per_frequency_batch():
    from repro.arch.segments import SegmentBatch

    core = CoreModel(haswell_i7_4770k())
    segments = _mixed_segments()
    batch = SegmentBatch(segments)
    freqs = [1.0, 1.375, 2.25, 3.5, 4.0]
    multi = core.time_batch_multi(batch, freqs)
    assert len(multi) == len(freqs)
    for freq, timing in zip(freqs, multi):
        (single,) = core.time_batch_multi(batch, [freq])
        assert timing.walls == single.walls  # exact, not approx
        assert timing.counters == single.counters


def test_time_batch_multi_bitwise_matches_time_segment():
    from repro.arch.segments import SegmentBatch

    core = CoreModel(haswell_i7_4770k())
    segments = _mixed_segments(n_memory=12, rng_seed=9)
    multi = core.time_batch_multi(SegmentBatch(segments), [1.5, 3.0])
    for freq, timing in zip([1.5, 3.0], multi):
        for segment, wall, counters in zip(
            segments, timing.walls, timing.counters
        ):
            solo = core.time_segment(segment, freq)
            assert wall == solo.wall_ns
            assert counters == solo.counters


def test_time_batch_multi_chunking_is_bit_transparent(monkeypatch):
    from repro.arch.segments import SegmentBatch

    core = CoreModel(haswell_i7_4770k())
    segments = _mixed_segments(n_memory=60, rng_seed=13)
    batch = SegmentBatch(segments)
    freqs = [1.0, 4.0]
    reference = core.time_batch_multi(batch, freqs)
    # Force many tiny chunks: every chunk boundary must cut cleanly at a
    # segment-group edge without changing a single bit.
    monkeypatch.setattr(CoreModel, "_MULTI_CHUNK", 16)
    chunked = core.time_batch_multi(batch, freqs)
    for ref, got in zip(reference, chunked):
        assert got.walls == ref.walls
        assert got.counters == ref.counters


def test_time_batch_multi_empty_inputs():
    from repro.arch.segments import SegmentBatch

    core = CoreModel(haswell_i7_4770k())
    batch = SegmentBatch([])
    assert core.time_batch_multi(batch, []) == []
    (timing,) = core.time_batch_multi(batch, [2.0])
    assert timing.walls == []
    assert timing.counters == []


# ----------------------------------------------------------------------
# Run-block sums: equal-count runs across chunks and pairwise bands
# ----------------------------------------------------------------------

#: Cluster counts below NumPy's pairwise block of 8, from 8 to its
#: unrolled limit of 128, and above it (where the pairwise sum splits).
RUN_COUNTS = (1, 3, 7, 8, 9, 16, 64, 127, 128, 129, 300, 1000)


def _equal_count_runs(repeats=5, rng_seed=21):
    """Memory segments with the counts of :data:`RUN_COUNTS`, each count
    ``repeats`` times, interleaved in plan order (so runs only form
    once the batch orders segments by count), plus clusterless memory,
    compute and store segments between them."""
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    segments = [ComputeSegment(insns=5000, cpi=0.6)]
    for repeat in range(repeats):
        for n_clusters in RUN_COUNTS:
            chains = rng.uniform(30.0, 600.0, size=n_clusters)
            segments.append(
                MemorySegment(
                    insns=int(rng.integers(200, 50_000)),
                    cpi=float(rng.uniform(0.3, 1.2)),
                    chain_ns=chains,
                    leading_total_ns=float(chains.sum() / 2),
                )
            )
        segments.append(MemorySegment.from_clusters(1000, 0.5, []))
        segments.append(StoreBurstSegment(n_stores=512, drain_ns_per_store=0.8))
    return segments


def _assert_matches_time_segment(core, segments, freq, timing):
    for segment, wall, counters in zip(
        segments, timing.walls, timing.counters
    ):
        solo = core.time_segment(segment, freq)
        assert repr(wall) == repr(solo.wall_ns)
        assert repr(counters) == repr(solo.counters)


def test_run_block_sums_match_time_segment_in_every_band():
    from repro.arch.segments import SegmentBatch

    core = CoreModel(haswell_i7_4770k())
    segments = _equal_count_runs()
    batch = SegmentBatch(segments)
    assert [n for _, _, n in batch.m_runs] == list(RUN_COUNTS)
    freqs = [1.0, 2.25, 4.0]
    for freq, multi in zip(freqs, core.time_batch_multi(batch, freqs)):
        _assert_matches_time_segment(core, segments, freq, multi)
        _assert_matches_time_segment(
            core, segments, freq, core.time_batch_multi(batch, [freq])[0]
        )


@pytest.mark.parametrize("chunk", [16, 100, 700, 2500])
def test_runs_straddling_multi_chunks_stay_bit_identical(monkeypatch, chunk):
    from repro.arch.segments import SegmentBatch

    core = CoreModel(haswell_i7_4770k())
    segments = _equal_count_runs(repeats=9, rng_seed=chunk)
    # Chunks cut at segment boundaries near ``chunk`` clusters, so most
    # runs of equal-count segments are split across chunks.
    monkeypatch.setattr(CoreModel, "_MULTI_CHUNK", chunk)
    batch = SegmentBatch(segments)
    freqs = [1.5, 3.5]
    for freq, multi in zip(freqs, core.time_batch_multi(batch, freqs)):
        _assert_matches_time_segment(core, segments, freq, multi)


def test_time_batch_multi_working_memory_stays_below_the_cluster_array():
    """The kernel works chunk by chunk: timing ~400 k clusters at one
    frequency allocates less than the batch's own cluster array, so no
    buffer the length of that array is built."""
    import tracemalloc

    import numpy as np

    from repro.arch.segments import SegmentBatch

    rng = np.random.default_rng(35)
    segments = []
    for _ in range(2000):
        chains = rng.uniform(30.0, 600.0, size=int(rng.integers(100, 300)))
        segments.append(
            MemorySegment(
                insns=int(rng.integers(1000, 50_000)),
                cpi=float(rng.uniform(0.3, 1.2)),
                chain_ns=chains,
                leading_total_ns=float(chains.sum() / 2),
            )
        )
    core = CoreModel(haswell_i7_4770k())
    batch = SegmentBatch(segments)
    assert len(batch.m_clusters) > 350_000
    tracemalloc.start()
    try:
        core.time_batch_multi(batch, [2.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch.m_clusters.nbytes
