"""Property tests: serialization and the persistent result cache.

Trace round-trips through the columnar codec must preserve predictions
exactly, and any structural damage to one column must raise
:class:`~repro.common.errors.TraceError`; cache keys must be
order-invariant but sensitive to every config field; cache round-trips of
run summaries (including a retained trace) must reproduce the original
to exact equality.
"""

import base64
import dataclasses
import functools
import json
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TraceError
from repro.core.predictors import make_predictor
from repro.experiments.cache import (
    ResultCache,
    fixed_key,
    managed_key,
    stable_hash,
)
from repro.sim.run import simulate
from repro.sim.serialize import decode_trace, encode_trace, trace_to_dict
from repro.workloads.synthetic import SyntheticWorkloadConfig, build_synthetic_program


@st.composite
def small_configs(draw):
    return SyntheticWorkloadConfig(
        name="ser-prop",
        seed=draw(st.integers(min_value=0, max_value=30)),
        n_threads=draw(st.integers(min_value=1, max_value=3)),
        n_units=draw(st.integers(min_value=8, max_value=16)),
        unit_insns=15_000,
        clusters_per_kinsn=draw(st.floats(min_value=0.0, max_value=1.5)),
        alloc_bytes_per_unit=draw(st.sampled_from([0, 262_144])),
        alloc_every=2,
        cs_probability=draw(st.floats(min_value=0.0, max_value=0.5)),
        nursery_mb=2,
        heap_mb=32,
    )


@given(config=small_configs(), freq=st.sampled_from([1.0, 2.5, 4.0]))
@settings(max_examples=15, deadline=None)
def test_roundtrip_preserves_predictions(config, freq):
    trace = simulate(build_synthetic_program(config), freq).trace
    rebuilt = decode_trace(json.loads(json.dumps(encode_trace(trace))))
    rebuilt.validate()
    assert rebuilt.total_ns == trace.total_ns
    assert len(rebuilt.events) == len(trace.events)
    for name in ("M+CRIT", "DEP+BURST"):
        predictor = make_predictor(name)
        assert predictor.predict_total_ns(
            rebuilt, 2.0
        ) == predictor.predict_total_ns(trace, 2.0)


@functools.lru_cache(maxsize=None)
def _encoded_text() -> str:
    config = SyntheticWorkloadConfig(
        name="ser-prop", seed=5, n_threads=3, n_units=12, unit_insns=15_000,
        clusters_per_kinsn=1.0, alloc_bytes_per_unit=262_144, alloc_every=2,
        cs_probability=0.3, nursery_mb=2, heap_mb=32,
    )
    trace = simulate(build_synthetic_program(config), 2.0).trace
    return json.dumps(encode_trace(trace))


def _column_names(payload):
    return sorted(
        (block, name)
        for block in ("events", "intervals")
        for name, value in payload[block].items()
        if isinstance(value, str)
    )


@given(data=st.data(), how=st.sampled_from(["truncate", "extend", "garble"]))
@settings(max_examples=80, deadline=None)
def test_corrupting_one_column_raises_trace_error(data, how):
    payload = json.loads(_encoded_text())
    block, name = data.draw(st.sampled_from(_column_names(payload)))
    text = payload[block][name]
    raw = base64.b64decode(text)
    assert raw, (block, name)
    if how == "truncate":
        cut = data.draw(st.integers(min_value=1, max_value=len(raw)))
        text = base64.b64encode(raw[:-cut]).decode()
    elif how == "extend":
        extra = data.draw(st.binary(min_size=1, max_size=24))
        text = base64.b64encode(raw + extra).decode()
    else:
        at = data.draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + data.draw(st.sampled_from("*!-_.~ \u00e9")) + text[at:]
    payload[block][name] = text
    with pytest.raises(TraceError):
        decode_trace(payload)


# ----------------------------------------------------------------------
# Cache keys: stable under ordering, sensitive to every field
# ----------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)


@given(
    entries=st.lists(
        st.tuples(st.text(max_size=10), _scalars), min_size=1, max_size=8,
        unique_by=lambda kv: kv[0],
    ),
    shuffled=st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_stable_hash_ignores_dict_ordering(entries, shuffled):
    forward = dict(entries)
    reordered_entries = list(entries)
    shuffled.shuffle(reordered_entries)
    reordered = dict(reordered_entries)
    assert list(forward.items()) == entries  # insertion order preserved
    assert stable_hash(forward) == stable_hash(reordered)


@given(config=small_configs(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_key_changes_when_any_config_field_changes(config, data):
    fingerprint = {"benchmark": config.name, "workload": config}
    baseline = fixed_key(fingerprint, 2.0, 5.0e6)

    # Same content, rebuilt object -> same key.
    clone = dataclasses.replace(config)
    assert fixed_key({"benchmark": config.name, "workload": clone}, 2.0, 5.0e6) \
        == baseline

    # Any single mutated field -> different key. (Only fields where +1
    # stays within the config's validation bounds.)
    mutable = (
        "seed", "n_threads", "n_units", "unit_insns", "cpi",
        "clusters_per_kinsn", "alloc_bytes_per_unit", "cs_insns",
        "n_locks", "heap_mb", "nursery_mb",
    )
    field = data.draw(st.sampled_from(mutable))
    mutated = dataclasses.replace(
        config, **{field: getattr(config, field) + 1}
    )
    assert fixed_key({"benchmark": config.name, "workload": mutated}, 2.0, 5.0e6) \
        != baseline

    # The run parameters themselves are part of the identity too.
    assert fixed_key(fingerprint, 2.5, 5.0e6) != baseline
    assert fixed_key(fingerprint, 2.0, 1.0e6) != baseline
    assert managed_key(fingerprint, {"threshold": 0.05}, 5.0e6) != baseline


# ----------------------------------------------------------------------
# Cache round-trips reproduce run summaries exactly
# ----------------------------------------------------------------------


@given(config=small_configs(), freq=st.sampled_from([1.0, 4.0]))
@settings(max_examples=6, deadline=None)
def test_cache_roundtrip_fixed_run_exact(config, freq):
    from repro.experiments.runner import FixedRun

    trace = simulate(build_synthetic_program(config), freq).trace
    run = FixedRun(
        benchmark=config.name,
        freq_ghz=freq,
        total_ns=trace.total_ns,
        gc_time_ns=trace.gc_time_ns,
        gc_cycles=trace.gc_cycles,
        energy_j=1.0 + config.seed / 7.0,
        trace=trace,
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.store_fixed("k" * 64, run)
        loaded = cache.load_fixed("k" * 64, run.benchmark)
    assert loaded is not None
    assert (loaded.benchmark, loaded.freq_ghz) == (run.benchmark, run.freq_ghz)
    assert loaded.total_ns == run.total_ns
    assert loaded.gc_time_ns == run.gc_time_ns
    assert loaded.gc_cycles == run.gc_cycles
    assert loaded.energy_j == run.energy_j
    assert trace_to_dict(loaded.trace) == trace_to_dict(run.trace)


@given(
    threshold=st.sampled_from([0.05, 0.10]),
    totals=st.tuples(
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1e-6, max_value=1e6),
    ),
    raw_decisions=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.floats(min_value=0.5, max_value=4.0),
            st.floats(min_value=0.5, max_value=4.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=40,
    ),
)
@settings(max_examples=50, deadline=None)
def test_cache_roundtrip_managed_run_exact(threshold, totals, raw_decisions):
    from repro.energy.manager import ManagerDecision
    from repro.experiments.runner import ManagedRun

    run = ManagedRun(
        benchmark="prop-bench",
        threshold=threshold,
        total_ns=totals[0],
        energy_j=totals[1],
        decisions=[
            ManagerDecision(
                interval_index=index,
                base_freq_ghz=base,
                chosen_freq_ghz=chosen,
                predicted_slowdown=slowdown,
            )
            for index, base, chosen, slowdown in raw_decisions
        ],
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.store_managed("m" * 64, run)
        loaded = cache.load_managed("m" * 64, run.benchmark)
    assert loaded == run  # dataclass equality covers the decision sequence
