"""Pinned digests of every generated program.

Programs carry pre-drawn DRAM chain latencies, so a change to how they
are sampled can move simulated numbers without failing any functional
test. These digests were recorded from the per-segment sampler that the
batched chain sampler replaced; they cover every action and every
``chain_ns`` byte of the DaCapo programs, the microbenchmarks, an
enabled JIT thread and the first six GC cycles of each DaCapo GC model.
The full-scale DaCapo digests live in ``dacapo_digests_scale1.txt`` and
are checked by CI (building them takes seconds per program).
"""

import hashlib
import sys

import pytest

import repro.arch.dram as dram_module
from repro.arch.dram import DramConfig
from repro.arch.specs import haswell_i7_4770k
from repro.jvm.gc import GcModel
from repro.jvm.jit import JitConfig, build_jit_program
from repro.workloads.dacapo import (
    dacapo_config,
    dacapo_jvm_config,
    dacapo_names,
)
from repro.workloads.micro import get_micro, micro_names
from repro.workloads.registry import get_benchmark
from tests.workloads.program_digests import (
    actions_digest,
    program_digest,
    workers_digest,
)

SCALE = 0.02

DACAPO = {
    "xalan": "a35a8da30f0ce6262b4edbf57754fef4e5441238e0818f1fde8eae470de9c79e",
    "pmd": "22ad64d86da2200aeaa38bd3eacfb26cd520ea97725e0eb15cb4e997b5e4d3b6",
    "pmd_scale": "a529cb422e23d1acc8d062018aaec33f158a02e14439aa1a36aea3e4e031dd99",
    "lusearch": "4da85fe59f907b735a039eed031b82cec0014f4d8a1a43e1d9bb746c31e440bc",
    "lusearch_fix": "aaf6acd323ffe569cd7ba40dcf983645e10acb18daa386b53efcbac1e570f54c",
    "avrora": "f30cda526b797cebe975640aab29a06b2c6c2d471489ca13d928aabb4f394942",
    "sunflow": "b0c1533d9c779560211160346d097535113d62006f79f9551f47b6669be0da5e",
}

MICRO = {
    "compute": "2c7f55355c726087fb53392f7d1047936274d61a89a564df6be537cf9e84ad1a",
    "pointer_chase": "8ab7201f29e167406d2a72a368c53c583e2b4ba6ce66f229e23d4c0605d47b19",
    "streaming": "7184bcac8135db0949ee62d4aa17a600f12a496ab9771c5a0f09f2a7860268f8",
    "bank_conflicts": "86d2779a286b43f0aea05c57a076ffa0746ac37b96ba250c40f150ea27ea223e",
    "store_heavy": "49d36206dc4ed13a1ca43dee1d337e987db408762eb816693f44a9c1f898effc",
    "mixed": "a7b9f9ff433ba3886f916b07e8245a392a9776cf8305286b80fec6b0c5c4cd6d",
}

#: ``build_jit_program(JitConfig(enabled=True), DramConfig(), seed=7)``.
JIT = "4777aba35b1cc777ffe744899fe964e40d5bb608a43278eec30b188c914f6ad3"

SMALL = (1 << 20, 1 << 18)
LARGE = (6 << 20, 2 << 20)
NO_QUEUE = DramConfig(queue_ns_per_request=0.0)

#: (DRAM, benchmark, (traced, copied) bytes) -> digest of cycles 0-5.
GC_CYCLES = {
    ("spec", "xalan", SMALL): "21d2d882fb166996cce150e37b27b97dee8576fbd519cf22e7a485a6e774b3a6",
    ("spec", "xalan", LARGE): "2ad5b2260a012a46a571f189e3a7a0f51f7fe9f19b53b4bd7e0893be93d5ab92",
    ("spec", "pmd", SMALL): "7187c81bea9128d5eddf7081610da46e54031dbaa8843655a0e613cbed0d3c9a",
    ("spec", "pmd", LARGE): "cef4ff9849a927c21265ca15784d6dd4dc3b22e2c468cecf851b026e82ccbd67",
    ("spec", "pmd_scale", SMALL): "3983efb5a1490c1d439d34cb9fc55f3ea67880128e23e3f1934431f8479af753",
    ("spec", "pmd_scale", LARGE): "7e1f9b8e54d6845d1dfa4efa1fc629f5f7b31d36fd9109a377f94764c8ba20b9",
    ("spec", "lusearch", SMALL): "9ce37c24f6238df9bce3428678d3a006ba0bdbe426378dddff11b729d25b2aa0",
    ("spec", "lusearch", LARGE): "a080f6841856c1ee467efbe2350d6d31450724cbe2d8ecfc29c5031fca6f4777",
    ("spec", "lusearch_fix", SMALL): "80d343f0416c3c87cc603adf0a8c4835e6e081661b8043125e0004ab69aeb89f",
    ("spec", "lusearch_fix", LARGE): "b9870c0de47090fe38b73e38dfcf706ced73bae967a256afa0b9fdec411cc554",
    ("spec", "avrora", SMALL): "59c4e7def1ac7fd2e0232143d0478ae9477519cd30845b2af14ef0490f15884f",
    ("spec", "avrora", LARGE): "d6864375de6b1b2a93bc0abfc6d1ba791cca38e5da82e18cb36eaa1465897df6",
    ("spec", "sunflow", SMALL): "1df81b3f0452e2b43db2c6ebcd2fc615022be6677eaf230ec6624fc17fc85f97",
    ("spec", "sunflow", LARGE): "0007eb2ffa563d762a89a7e64746647998b8d3080b59d58ddad130f72365b9a2",
    ("no-queue", "xalan", LARGE): "bfc0474bca22fd3e6dab9af16356015cd4ade2500296fd477bcdbc84da691835",
    ("no-queue", "pmd", LARGE): "80924eb52bc16d22977f968f4ee2c9e51464f1830827991932f66e593860326b",
    ("no-queue", "pmd_scale", LARGE): "b1e70aa2d0fac1a1a716f9e31aa3551b90454d956735892f25c0bdd05ca63060",
    ("no-queue", "lusearch", LARGE): "ffca6dbe3aed79bdba0334b848a9eeb571b62d4a3d6c31f67a9ac99ab8bf34d9",
    ("no-queue", "lusearch_fix", LARGE): "3cbaabbdb900a5666c1ac7e91427ae53b607172b61c6fc097cce7b1e49740913",
    ("no-queue", "avrora", LARGE): "e6951c9299afb7b840ccd8ba9ca1d64f0840cbed0316889ae7c84677008fcf0b",
    ("no-queue", "sunflow", LARGE): "0010a330cec7f9e9f644273b7ac7afe7050ff048d8dd188221b6b5a97cf0b4ef",
}


def _gc_digest(dram_name, name, sizes):
    dram = haswell_i7_4770k().dram if dram_name == "spec" else NO_QUEUE
    model = GcModel(dacapo_jvm_config(name).gc, dram, dacapo_config(name).seed)
    digest = hashlib.sha256()
    for gc_index in range(6):
        digest.update(workers_digest(model.build_cycle(gc_index, *sizes)).encode())
    return digest.hexdigest()


def _jit_digest():
    thread = build_jit_program(JitConfig(enabled=True), DramConfig(), seed=7)
    return actions_digest(thread.actions)


def test_every_generator_is_pinned():
    assert set(DACAPO) == set(dacapo_names())
    assert set(MICRO) == set(micro_names())
    assert {name for _, name, _ in GC_CYCLES} == set(dacapo_names())


@pytest.mark.parametrize("name", sorted(DACAPO))
def test_dacapo_program_matches_pinned_digest(name):
    assert program_digest(get_benchmark(name, SCALE).program) == DACAPO[name]


@pytest.mark.parametrize("name", sorted(MICRO))
def test_micro_program_matches_pinned_digest(name):
    assert program_digest(get_micro(name)) == MICRO[name]


def test_jit_thread_matches_pinned_digest():
    assert _jit_digest() == JIT


@pytest.mark.parametrize(
    "dram_name,name,sizes", sorted(GC_CYCLES), ids=lambda value: str(value)
)
def test_gc_cycles_match_pinned_digest(dram_name, name, sizes):
    assert _gc_digest(dram_name, name, sizes) == GC_CYCLES[dram_name, name, sizes]


@pytest.mark.parametrize("flush_draws", [1, dram_module._FLUSH_DRAWS, sys.maxsize])
def test_flush_size_does_not_change_programs(monkeypatch, flush_draws):
    """Batching is arithmetic only: flushing after every segment, at the
    default size or once per thread yields the same programs."""
    monkeypatch.setattr(dram_module, "_FLUSH_DRAWS", flush_draws)
    program = get_benchmark("lusearch", SCALE).program
    assert program_digest(program) == DACAPO["lusearch"]
    assert program_digest(get_micro("mixed")) == MICRO["mixed"]
    assert _jit_digest() == JIT
    key = ("spec", "xalan", LARGE)
    assert _gc_digest(*key) == GC_CYCLES[key]
