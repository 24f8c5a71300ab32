"""DaCapo benchmark models."""

import pytest

from repro.common.errors import ConfigError
from repro.workloads.dacapo import (
    COMPUTE_INTENSIVE,
    MEMORY_INTENSIVE,
    TABLE1_EXPECTED,
    dacapo_config,
    dacapo_jvm_config,
    dacapo_names,
)
from repro.workloads.registry import get_benchmark


def test_all_seven_benchmarks_present():
    names = dacapo_names()
    assert set(names) == {
        "xalan", "pmd", "pmd_scale", "lusearch", "lusearch_fix",
        "avrora", "sunflow",
    }
    assert set(MEMORY_INTENSIVE) | set(COMPUTE_INTENSIVE) == set(names)
    assert not set(MEMORY_INTENSIVE) & set(COMPUTE_INTENSIVE)


def test_table1_rows_match_paper_metadata():
    assert TABLE1_EXPECTED["xalan"].heap_mb == 108
    assert TABLE1_EXPECTED["lusearch"].exec_time_ms == 2600.0
    assert TABLE1_EXPECTED["avrora"].gc_time_ms == 5.0
    assert TABLE1_EXPECTED["sunflow"].type_label == "C"


def test_heap_sizes_follow_table1():
    for name, row in TABLE1_EXPECTED.items():
        config = dacapo_config(name)
        assert config.heap_mb == row.heap_mb, name


def test_avrora_has_six_threads_others_four():
    assert dacapo_config("avrora").n_threads == 6
    for name in dacapo_names():
        if name != "avrora":
            assert dacapo_config(name).n_threads == 4, name


def test_lusearch_fix_reduces_allocation():
    broken = dacapo_config("lusearch")
    fixed = dacapo_config("lusearch_fix")
    assert fixed.alloc_bytes_per_unit < broken.alloc_bytes_per_unit / 4


def test_pmd_scale_removes_imbalance():
    assert dacapo_config("pmd").thread_imbalance > 0.3
    assert dacapo_config("pmd_scale").thread_imbalance < 0.1


def test_avrora_is_serialized():
    assert dacapo_config("avrora").serialized_fraction > 0.4


def test_sunflow_uses_barriers():
    assert dacapo_config("sunflow").barrier_period > 0


def test_scale_parameter():
    full = dacapo_config("xalan")
    small = dacapo_config("xalan", scale=0.1)
    assert small.n_units == pytest.approx(full.n_units * 0.1, abs=1)


def test_unknown_benchmark_rejected():
    with pytest.raises(ConfigError):
        dacapo_config("h2")
    with pytest.raises(ConfigError):
        dacapo_jvm_config("h2")


def test_build_dacapo_produces_program():
    program = get_benchmark("pmd_scale", scale=0.02).program
    assert program.name == "pmd_scale"
    assert program.n_threads == 4
    assert program.total_allocated_bytes() > 0
