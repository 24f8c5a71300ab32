"""Persistent result cache: warm-run behaviour and fault injection.

The contract under test: a second runner over the same store performs
zero new simulations; any on-disk damage (truncation, bit flips, a
changed digit, schema bumps) silently degrades to a recompute — the
cache may lose work, it must never corrupt results or crash the suite.
"""

import base64
import json
import re

import pytest

from repro.common.store import FileStore
from repro.energy.manager import ManagerConfig
from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

CONFIG = ExperimentConfig(
    scale=0.02,
    benchmarks=("pmd_scale",),
    thresholds=(0.10,),
    quantum_ns=2.0e5,
)


@pytest.fixture
def store(tmp_path):
    return ResultCache(tmp_path / "cache")


def _populate(store) -> ExperimentRunner:
    runner = ExperimentRunner(CONFIG, cache=store)
    runner.fixed_run("pmd_scale", 1.0)   # base freq: trace stored inline
    runner.fixed_run("pmd_scale", 2.0)   # summary only
    runner.managed_run("pmd_scale", 0.10)
    return runner


def _rerun(store) -> ExperimentRunner:
    runner = ExperimentRunner(CONFIG, cache=store)
    runner.fixed_run("pmd_scale", 1.0)
    runner.fixed_run("pmd_scale", 2.0)
    runner.managed_run("pmd_scale", 0.10)
    return runner


def test_warm_cache_performs_zero_simulations(store):
    cold = _populate(store)
    assert cold.simulations == 3
    assert store.stats.stores == 3

    warm_store = ResultCache(store.root)  # fresh instance, same directory
    warm = _rerun(warm_store)
    assert warm.simulations == 0
    assert warm_store.stats.hits == 3
    assert warm_store.stats.errors == 0
    # And the rehydrated results match the originals exactly.
    assert warm.fixed_run("pmd_scale", 1.0) == cold.fixed_run("pmd_scale", 1.0)
    assert warm.managed_run("pmd_scale", 0.10) == cold.managed_run(
        "pmd_scale", 0.10
    )


def _summaries(store, kind):
    """The entry files of one run kind, told apart by content."""
    return sorted(
        path
        for path in store.root.rglob("*.json")
        if ("threshold" in path.read_text()) == (kind == "managed")
    )


def test_truncated_summary_recomputes(store):
    _populate(store)
    victim = _summaries(store, "fixed")[0]
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1  # only the damaged entry
    assert warm_store.stats.errors == 1
    assert not victim.exists() or json.loads(victim.read_text())  # rebuilt


def test_bitflipped_trace_entry_recomputes(store):
    _populate(store)
    # The base-frequency entry carries the trace, so it is the big one.
    victim = max(_summaries(store, "fixed"), key=lambda p: p.stat().st_size)
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1
    assert warm_store.stats.errors == 1
    assert warm.fixed_run("pmd_scale", 1.0).trace is not None
    # The rebuilt entry reads back cleanly again.
    again = _rerun(ResultCache(store.root))
    assert again.simulations == 0


def test_changed_digit_in_managed_entry_recomputes(store):
    cold = _populate(store)
    (victim,) = _summaries(store, "managed")
    text, changed = re.subn(
        r'(total_ns\\?":)(\d)',
        lambda m: m.group(1) + ("1" if m.group(2) == "9" else "9"),
        victim.read_text(),
        count=1,
    )
    assert changed == 1
    json.loads(text)  # still valid JSON: only the checksum can tell
    victim.write_text(text)

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1
    assert warm_store.stats.errors == 1
    assert warm.managed_run("pmd_scale", 0.10) == cold.managed_run(
        "pmd_scale", 0.10
    )


def test_garbage_json_and_wrong_key_recompute(store):
    _populate(store)
    fixed = _summaries(store, "fixed")
    fixed[0].write_text("not json at all {{{")
    entry = json.loads(fixed[1].read_text())
    entry["key"] = "0" * 64  # plausible JSON under the wrong address
    fixed[1].write_text(json.dumps(entry))

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 2
    assert warm_store.stats.errors == 2


def test_undecodable_entry_recomputes(store):
    """Intact, checksummed bytes the codec cannot read are rejected too."""
    _populate(store)
    (victim,) = _summaries(store, "managed")
    key = json.loads(victim.read_text())["key"]
    FileStore(victim.parent, prefix="run").put(key, '{"benchmark":"pmd_scale"}')

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1
    assert warm_store.stats.errors == 1
    assert (warm_store.stats.hits, warm_store.stats.misses) == (2, 1)


def test_undecodable_trace_in_a_checksummed_entry_recomputes(store):
    """A trace column cut short under a correct checksum is rejected."""
    cold = _populate(store)
    victim = max(_summaries(store, "fixed"), key=lambda p: p.stat().st_size)
    entry = json.loads(victim.read_text())
    value = json.loads(entry["value"])
    column = base64.b64decode(value["trace"]["events"]["time_ns"])
    value["trace"]["events"]["time_ns"] = base64.b64encode(column[:-8]).decode()
    FileStore(victim.parent, prefix="run").put(entry["key"], json.dumps(value))

    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 1
    assert warm_store.stats.errors == 1
    assert (warm_store.stats.hits, warm_store.stats.misses) == (2, 1)
    assert warm.fixed_run("pmd_scale", 1.0) == cold.fixed_run("pmd_scale", 1.0)
    again = _rerun(ResultCache(store.root))
    assert again.simulations == 0


def test_schema_version_bump_invalidates(store, monkeypatch):
    _populate(store)
    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999)
    warm_store = ResultCache(store.root)
    warm = _rerun(warm_store)
    assert warm.simulations == 3  # nothing from the old version is reachable
    assert warm_store.stats.errors == 0  # stale, not corrupt
    # Old entries survive on disk (reported as stale) until `clear`.
    assert warm_store.disk_stats()["stale_entries"] == 3
    assert warm_store.clear() > 0
    assert warm_store.disk_stats()["entries"] == 0


def test_cli_cache_stats_and_clear(store, capsys):
    from repro.experiments.cli import cache_main

    _populate(store)
    assert cache_main(["stats", "--cache-dir", str(store.root)]) == 0
    out = capsys.readouterr().out
    assert "entries:       3" in out
    assert str(store.root) in out

    assert cache_main(["clear", "--cache-dir", str(store.root)]) == 0
    assert "removed 3 cached file(s)" in capsys.readouterr().out
    warm = _rerun(ResultCache(store.root))
    assert warm.simulations == 3


def test_prediction_fingerprint_tracks_kernel_version(monkeypatch):
    from repro.core import sweep as sweep_mod

    before = cache_mod.prediction_fingerprint()
    assert before == {
        "engine": "sweep",
        "kernel_version": sweep_mod.KERNEL_VERSION,
    }
    monkeypatch.setattr(sweep_mod, "KERNEL_VERSION", sweep_mod.KERNEL_VERSION + 1)
    bumped = cache_mod.prediction_fingerprint()
    assert bumped["kernel_version"] == before["kernel_version"] + 1
    fingerprint = {"benchmark": "pmd_scale", "scale": 0.02}
    manager = {"objective": "energy"}
    assert cache_mod.managed_key(
        fingerprint, manager, 2.0e5, prediction=before
    ) != cache_mod.managed_key(fingerprint, manager, 2.0e5, prediction=bumped)


def test_result_keys_are_pinned():
    # A managed key also hashes the sweep fingerprint. A pin moves only
    # when a hashed input changes, and every stored result goes cold.
    fingerprint = ExperimentRunner(CONFIG).fingerprint("pmd_scale")
    assert cache_mod.fixed_key(fingerprint, 1.0, CONFIG.quantum_ns) == (
        "da36d9a5d642a36048e27073ed40baa39fcb306b549f9717de384dc4de354039"
    )
    assert cache_mod.managed_key(
        fingerprint,
        ManagerConfig(tolerable_slowdown=0.10),
        CONFIG.quantum_ns,
        prediction=cache_mod.prediction_fingerprint(),
    ) == "69213a31fc294182e263f410d229836767c04bc41c9a41faa3b0804473a816c0"
