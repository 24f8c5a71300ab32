"""Cluster topologies: validation, ladders, single-domain detection."""

import pytest

from repro.arch.clusters import (
    ClusterSpec,
    ClusterTopology,
    big_little,
    homogeneous,
)
from repro.arch.specs import haswell_i7_4770k
from repro.common.errors import ConfigError

SPEC = haswell_i7_4770k()


# ----------------------------------------------------------------------
# ClusterSpec
# ----------------------------------------------------------------------


def test_spec_ladder_is_the_integer_step_grid():
    cluster = ClusterSpec(name="c", cores=(0,), min_freq_ghz=1.0,
                          max_freq_ghz=2.0, freq_step_ghz=0.5)
    assert cluster.frequencies() == (1.0, 1.5, 2.0)


def test_spec_validation_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        ClusterSpec(name="", cores=(0,))
    with pytest.raises(ConfigError):
        ClusterSpec(name="c", cores=())
    with pytest.raises(ConfigError):
        ClusterSpec(name="c", cores=(0, 0))
    with pytest.raises(ConfigError):
        ClusterSpec(name="c", cores=(0,), min_freq_ghz=3.0, max_freq_ghz=2.0)
    with pytest.raises(ConfigError):
        ClusterSpec(name="c", cores=(0,), node_scaling="optimistic")
    with pytest.raises(ConfigError):
        ClusterSpec(name="c", cores=(0,), uncore_freq_ghz=0.0)


def test_uncore_scale_is_reference_over_target():
    cluster = ClusterSpec(
        name="c", cores=(0,), uncore_freq_ghz=SPEC.uncore_freq_ghz / 2.0
    )
    assert cluster.uncore_scale(SPEC) == 2.0
    reference = ClusterSpec(
        name="r", cores=(0,), uncore_freq_ghz=SPEC.uncore_freq_ghz
    )
    assert reference.uncore_scale(SPEC) == 1.0


def test_supported_frequencies_apply_the_vth_floor():
    deep = ClusterSpec(name="deep", cores=(0,), node_nm=16,
                       node_scaling="itrs")
    supported = deep.supported_frequencies()
    assert supported[0] > deep.min_freq_ghz  # dim silicon: floor rose
    assert set(supported) <= set(deep.frequencies())
    baseline = ClusterSpec(name="base", cores=(0,))
    assert baseline.supported_frequencies() == baseline.frequencies()


# ----------------------------------------------------------------------
# ClusterTopology
# ----------------------------------------------------------------------


def test_topology_must_partition_the_machine():
    half = ClusterSpec(name="half", cores=(0, 1))
    with pytest.raises(ConfigError, match="partition"):
        ClusterTopology(spec=SPEC, clusters=(half,))
    overlapping = (
        ClusterSpec(name="a", cores=(0, 1, 2)),
        ClusterSpec(name="b", cores=(2, 3)),
    )
    with pytest.raises(ConfigError, match="partition"):
        ClusterTopology(spec=SPEC, clusters=overlapping)


def test_topology_rejects_duplicate_names_and_off_grid_ladders():
    with pytest.raises(ConfigError, match="duplicate"):
        ClusterTopology(
            spec=SPEC,
            clusters=(
                ClusterSpec(name="x", cores=(0, 1)),
                ClusterSpec(name="x", cores=(2, 3)),
            ),
        )
    with pytest.raises(ConfigError, match="grid"):
        ClusterTopology(
            spec=SPEC,
            clusters=(
                ClusterSpec(name="odd", cores=tuple(range(SPEC.n_cores)),
                            freq_step_ghz=0.3),
            ),
        )


def test_homogeneous_is_single_domain_and_big_little_is_not():
    assert homogeneous(SPEC).is_single_domain
    assert not big_little(SPEC).is_single_domain
    # A full-machine cluster with a clipped ladder is not the legacy
    # machine either.
    clipped = ClusterTopology(
        spec=SPEC,
        clusters=(
            ClusterSpec(name="all", cores=tuple(range(SPEC.n_cores)),
                        max_freq_ghz=2.0),
        ),
    )
    assert not clipped.is_single_domain
