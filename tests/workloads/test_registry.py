"""Benchmark registry bundles."""

import pytest

from repro.workloads.registry import TABLE1_EXPECTED, benchmark_names, get_benchmark


def test_bundle_contents():
    bundle = get_benchmark("xalan", scale=0.02)
    assert bundle.name == "xalan"
    assert bundle.program.name == "xalan"
    assert bundle.gc_model is not None
    assert bundle.jvm_config.gc.n_gc_threads == 4
    assert bundle.spec.n_cores == 4


def test_type_labels():
    assert get_benchmark("xalan", scale=0.02).is_memory_intensive
    assert not get_benchmark("sunflow", scale=0.02).is_memory_intensive
    assert get_benchmark("avrora", scale=0.02).type_label == "C"


@pytest.mark.parametrize("name", benchmark_names())
def test_config_facts_match_the_built_program(name):
    """The label and GC seed a bundle reads from its config are the
    generated program's, so reading them never changes a classification
    or a GC cycle."""
    bundle = get_benchmark(name, scale=0.02)
    label = bundle.type_label
    assert label == TABLE1_EXPECTED[name].type_label == bundle.program.tags["type"]
    assert bundle.gc_model.seed == bundle.program.seed


def test_names_order_matches_table1():
    assert benchmark_names()[0] == "xalan"
    assert len(benchmark_names()) == 7


def test_lazy_package_attribute():
    import repro.workloads as workloads

    try:
        workloads.nonexistent_attribute
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected AttributeError")
