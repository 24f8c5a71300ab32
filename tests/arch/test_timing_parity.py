"""Batched timing kernels equal ``time_segment`` on every DaCapo segment.

Runs :mod:`tests.arch.timing_parity` at reduced scale; CI's ``lint`` job
runs the same check over the full-scale programs.
"""

from tests.arch.timing_parity import check_scale

SCALE = 0.02


def test_every_dacapo_segment_times_bit_identically():
    for name, n_segments, found in check_scale(SCALE):
        assert n_segments > 0, name
        assert found == [], name
