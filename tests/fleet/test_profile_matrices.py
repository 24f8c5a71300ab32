"""Profile sweep matrices: bit-identical to the per-interval oracle.

``TenantProfile`` derives ``D`` for the DEP family from one columnar
decomposition of the whole trace and ``E`` from one array expression;
``tests/fleet/matrix_oracle.py`` keeps the original one-interval-at-a-time
loops. Every case here compares the two as int64 views, so a single
changed bit fails.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arch.counters import CounterSet
from repro.arch.specs import haswell_i7_4770k
from repro.core.predictors import make_predictor
from repro.energy.manager import ManagerConfig, interval_epochs
from repro.energy.power import PowerModel
from repro.fleet import profiles as profiles_module
from repro.fleet.corpus import builtin_templates
from repro.fleet.profiles import TenantProfile
from repro.fleet.tenants import TenantSpec
from repro.sim.intervals import IntervalRecord
from repro.sim.run import simulate
from repro.sim.serialize import decode_trace, encode_trace
from repro.sim.trace import EventKind
from tests.fleet.matrix_oracle import oracle_durations, oracle_energies

SPEC = haswell_i7_4770k()
POWER = PowerModel(SPEC)
TEMPLATES = {template.name: template for template in builtin_templates()}
#: Units per miniature tenant: enough for several GC cycles in gcheavy.
N_UNITS = 16

_ENCODED = {}


def _trace(family, seed, base, quantum):
    """A fresh decoded trace of a miniature built-in family (memoized
    encoded, so every caller may mutate its copy)."""
    key = (family, seed, base, quantum)
    if key not in _ENCODED:
        workload = dataclasses.replace(
            TEMPLATES[family].workload, n_units=N_UNITS, seed=seed
        )
        tenant = TenantSpec(
            name=family, workload=workload, base_freq_ghz=base,
            quantum_ns=quantum, manager=ManagerConfig(), sla_slowdown=0.3,
        )
        trace = simulate(
            tenant.program(), base, spec=SPEC, quantum_ns=quantum
        ).trace
        _ENCODED[key] = encode_trace(trace)
    return decode_trace(_ENCODED[key])


def _recut(trace, cuts):
    """Replace the trace's intervals by ones between the sorted event
    indices ``cuts`` (duplicates give empty, zero-length intervals)."""
    n = len(trace.events)
    records = trace.intervals
    bounds = [0] + sorted(cut % (n + 1) for cut in cuts) + [n]
    trace.intervals = [
        IntervalRecord(
            index=i,
            start_ns=trace.events[min(lo, n - 1)].time_ns,
            end_ns=trace.events[min(hi, n - 1)].time_ns,
            freq_ghz=records[i % len(records)].freq_ghz,
            per_thread=records[i % len(records)].per_thread,
            event_lo=lo,
            event_hi=hi,
        )
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def _freeze(trace, fraction):
    """Stop every thread's ``active_ns`` from the event at ``fraction``
    of the trace on: later epochs have zero wall time, so intervals
    there predict nothing (a degenerate fmax row)."""
    cols = trace.columns
    at = int(fraction * cols.n_events)
    last = {}
    for event in range(cols.n_events):
        for row in range(cols.snap_lo[event], cols.snap_lo[event + 1]):
            tid = cols.snap_tid[row]
            if event < at:
                last[tid] = cols.active_ns[row]
            else:
                cols.active_ns[row] = last.get(tid, 0.0)


def _profile(
    family="compute", seed=1, base=3.0, quantum=5.0e4,
    predictor="DEP+BURST", across=True, cuts=None, freeze=None,
):
    trace = _trace(family, seed, base, quantum)
    if cuts is not None:
        _recut(trace, cuts)
    if freeze is not None:
        _freeze(trace, freeze)
    profile = TenantProfile("test", trace, SPEC, predictor, POWER)
    profile.predictor = make_predictor(predictor, across_epoch_ctp=across)
    return profile


def _assert_matches_oracle(profile):
    expected_d = oracle_durations(profile)
    expected_e = oracle_energies(profile, expected_d)
    assert profile.durations.dtype == np.float64
    assert np.array_equal(
        profile.durations.view(np.int64), expected_d.view(np.int64)
    )
    assert np.array_equal(
        profile.energies.view(np.int64), expected_e.view(np.int64)
    )


def _measured_rows(profile):
    """Indices of intervals whose row is the measured duration."""
    return [
        i
        for i, record in enumerate(profile.records)
        if np.all(profile.durations[i] == record.duration_ns)
    ]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(TEMPLATES)),
    seed=st.integers(1, 3),
    base=st.sampled_from((4.0, 3.0, 2.0)),
    quantum=st.sampled_from((2.0e4, 5.0e4, 2.0e5)),
    predictor=st.sampled_from(("DEP+BURST", "DEP")),
    across=st.booleans(),
    cuts=st.none() | st.lists(st.integers(0, 10**6), max_size=12),
    freeze=st.none() | st.floats(0.0, 1.0),
)
@example(
    family="gcheavy", seed=1, base=3.0, quantum=2.0e4,
    predictor="DEP+BURST", across=True, cuts=None, freeze=None,
)
@example(
    family="gcheavy", seed=2, base=2.0, quantum=5.0e4,
    predictor="DEP", across=False, cuts=None, freeze=0.5,
)
@example(
    family="locky", seed=1, base=4.0, quantum=2.0e4,
    predictor="DEP+BURST", across=False, cuts=[0, 0, 1, 1, 7, 7, 10**6],
    freeze=None,
)
def test_dep_matrices_match_oracle(
    family, seed, base, quantum, predictor, across, cuts, freeze
):
    profile = _profile(
        family, seed, base, quantum, predictor, across, cuts, freeze
    )
    _assert_matches_oracle(profile)


@pytest.mark.parametrize("across", [True, False])
def test_gc_cycle_spanning_an_interval_boundary(across):
    profile = _profile("gcheavy", quantum=2.0e4, across=across)
    kinds = [event.kind for event in profile.trace.events]
    depth, inside = 0, []
    for kind in kinds:
        inside.append(depth > 0)
        if kind is EventKind.GC_START:
            depth += 1
        elif kind is EventKind.GC_END:
            depth -= 1
    # Some interval's slice opens while a collection is in progress.
    assert any(
        inside[max(0, record.event_lo - 1)] for record in profile.records
    )
    _assert_matches_oracle(profile)


def test_empty_interval_keeps_measured_duration():
    profile = _profile(cuts=[0, 0, 1])
    empty = [
        i
        for i, record in enumerate(profile.records)
        if not interval_epochs(record, profile.trace)
    ]
    assert empty
    assert set(empty) <= set(_measured_rows(profile))
    _assert_matches_oracle(profile)


def test_degenerate_fmax_row_keeps_measured_duration():
    profile = _profile("barrier", freeze=0.5)
    degenerate = [
        i
        for i in _measured_rows(profile)
        if interval_epochs(profile.records[i], profile.trace)
    ]
    assert degenerate
    _assert_matches_oracle(profile)


@pytest.fixture()
def no_columnar_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the columnar DEP path ran")

    monkeypatch.setattr(profiles_module, "dep_ranges_sweep", refuse)


def test_dep_takes_the_columnar_path(monkeypatch):
    calls = []
    kernel = profiles_module.dep_ranges_sweep

    def spy(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(profiles_module, "dep_ranges_sweep", spy)
    _assert_matches_oracle(_profile("locky"))
    assert calls == [1]


@pytest.mark.parametrize("predictor", ["M+CRIT", "COOP", "COOP+BURST"])
def test_window_predictors_take_the_fallback(no_columnar_kernel, predictor):
    _assert_matches_oracle(_profile("gcheavy", predictor=predictor))


def test_trace_without_columns_takes_the_fallback(no_columnar_kernel):
    profile = _profile("locky")
    profile.trace = dataclasses.replace(profile.trace, columns=None)
    _assert_matches_oracle(profile)


_COUNT = st.floats(0.0, 1e7, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    counters=st.lists(
        st.builds(
            CounterSet,
            active_ns=_COUNT, crit_ns=_COUNT, leading_ns=_COUNT,
            stall_ns=_COUNT, sqfull_ns=_COUNT,
            insns=st.integers(0, 10**8), stores=st.integers(0, 10**6),
        ),
        min_size=1, max_size=6,
    ),
    data=st.data(),
)
def test_array_energy_equals_scalar_energy(counters, data):
    freqs = SPEC.frequencies()
    durations = np.array(
        [
            [
                data.draw(st.sampled_from((0.0, -0.0)) | _COUNT)
                for _ in freqs
            ]
            for _ in counters
        ]
    )
    energies = POWER.interval_energies_j(counters, durations, freqs)
    for i, c in enumerate(counters):
        for j, freq in enumerate(freqs):
            expected = POWER.interval_energy_j(c, float(durations[i, j]), freq)
            assert energies[i, j].view(np.int64) == np.float64(
                expected
            ).view(np.int64)


def test_array_energy_rejects_negative_durations():
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="negative interval duration"):
        POWER.interval_energies_j([CounterSet()], np.array([[-1.0]]), [1.0])
