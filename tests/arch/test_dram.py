"""DRAM model: batched dependent-chain latency sampling."""

import numpy as np
import pytest

from repro.arch.dram import ChainSampler, DramConfig
from repro.arch.segments import MemorySegment


def _sample(config, seed, locality, groups):
    """Chain latencies of ``(n_clusters, depth)`` segments, one array each."""
    actions = []
    sampler = ChainSampler(
        np.random.default_rng(seed), config, locality, action=lambda s: s
    )
    for n_clusters, depth in groups:
        sampler.draw(n_clusters, depth=depth)
        sampler.place(actions, 1_000, 0.5)
    sampler.flush()
    assert all(isinstance(segment, MemorySegment) for segment in actions)
    return [segment.chain_ns for segment in actions]


def test_batch_chain_latencies_shape_and_determinism():
    groups = [(1, 1), (1, 2), (1, 3), (1, 1)]
    a = np.concatenate(_sample(DramConfig(), 3, 0.4, groups))
    b = np.concatenate(_sample(DramConfig(), 3, 0.4, groups))
    assert a.shape == (4,)
    assert np.array_equal(a, b)
    # Deeper chains have larger latency in expectation; latencies positive.
    assert (a > 0).all()


def test_batch_empty_and_invalid_depths():
    (empty,) = _sample(DramConfig(), 0, 0.5, [(0, 1)])
    assert empty.size == 0
    with pytest.raises(ValueError):
        _sample(DramConfig(), 0, 0.5, [(1, 0)])
    with pytest.raises(ValueError):
        _sample(DramConfig(), 0, 0.5, [(-1, 1)])


def test_batch_latency_bounds():
    cfg = DramConfig(queue_ns_per_request=0.0)
    (chains,) = _sample(cfg, 5, 0.5, [(200, 2)])
    assert chains.min() >= 2 * cfg.row_hit_ns - 1e-9
    assert chains.max() <= 2 * cfg.row_conflict_ns + 1e-9


def test_high_locality_lowers_mean_latency():
    cfg = DramConfig(queue_ns_per_request=0.0)
    (local,) = _sample(cfg, 1, 0.95, [(2000, 1)])
    (scattered,) = _sample(cfg, 1, 0.05, [(2000, 1)])
    assert local.mean() < scattered.mean()


def test_segments_hold_read_only_views_and_leading_ratios():
    actions = ["before"]
    sampler = ChainSampler(
        np.random.default_rng(9), DramConfig(), 0.3, action=lambda s: s
    )
    sampler.draw(5, mean_depth=2.0)
    sampler.place(actions, 2_000, 0.7)
    actions.append("between")
    sampler.draw(0)
    sampler.place(actions, 300, 0.7)
    assert actions[1] is None  # placeholder until the flush
    sampler.flush()
    first, empty = actions[1], actions[3]
    assert actions[0] == "before" and actions[2] == "between"
    assert (first.insns, first.cpi, first.n_clusters) == (2_000, 0.7, 5)
    assert not first.chain_ns.flags.writeable
    assert first.leading_total_ns <= first.total_chain_ns
    assert empty.n_clusters == 0 and empty.leading_total_ns == 0.0


def test_draw_and_place_must_alternate():
    sampler = ChainSampler(
        np.random.default_rng(0), DramConfig(), 0.5, action=lambda s: s
    )
    with pytest.raises(ValueError):
        sampler.place([], 100, 0.5)
    sampler.draw(1)
    with pytest.raises(ValueError):
        sampler.draw(1)
    with pytest.raises(ValueError):
        sampler.flush()
