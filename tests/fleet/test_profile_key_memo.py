"""The profile key memoized on a TenantSpec: same bytes, invisible state.

``profile_key(spec)`` hashes the spec once and keeps the result on the
instance. These tests pin that the memo equals a from-scratch hash, that
it never shows up in a spec's equality or serialized forms, that it
survives the pickling the parallel build's spawn pool does, and that a
``dataclasses.replace`` copy hashes afresh.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.core.predictors import predictor_names
from repro.energy.manager import ManagerConfig
from repro.fleet.corpus import builtin_templates
from repro.fleet.tenants import (
    TenantSpec,
    profile_key,
    tenant_from_fuzz_case,
    tenant_spec_to_dict,
    workload_fingerprint,
)
from repro.qa.fuzzer import fuzz_case

#: Built-in family -> (profile key, workload fingerprint) of its first
#: (base frequency, quantum) point.
PINNED = {
    "compute": ("3739e6451a5bfe6e", "5de176dc5dd16b82"),
    "memstream": ("92d6e6a3d0ff7bd8", "ed988ab170c99167"),
    "phased": ("04469692fe311529", "cc3363907c780203"),
    "locky": ("5994daec6ec0d3fa", "deed1c7d63b22377"),
    "barrier": ("a020114578305eb3", "a754022dfe9d2d2e"),
    "gcheavy": ("9f391025f6310acb", "21f2da9846d0e96f"),
}


def fresh_key(spec):
    """The profile key computed from scratch, the way it is defined."""
    canonical = json.dumps(
        {
            "workload": dataclasses.asdict(spec.workload),
            "base_freq_ghz": spec.base_freq_ghz,
            "quantum_ns": spec.quantum_ns,
            "predictor": spec.predictor,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _field_dict(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def reference_digest(payload):
    """The key hash as first defined: one ``json.dumps`` of the whole
    payload with a dataclass hook, no memo."""
    canonical = json.dumps(payload, sort_keys=True, default=_field_dict)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def reference_key(spec):
    return reference_digest(
        {
            "workload": spec.workload,
            "base_freq_ghz": spec.base_freq_ghz,
            "quantum_ns": spec.quantum_ns,
            "predictor": spec.predictor,
        }
    )


def template_spec(template):
    return TenantSpec(
        name=template.name,
        workload=template.workload,
        base_freq_ghz=template.base_freqs[0],
        quantum_ns=template.quanta[0],
        manager=ManagerConfig(),
        predictor=template.predictor,
    )


def specs():
    out = [template_spec(t) for t in builtin_templates()]
    out.append(tenant_from_fuzz_case(fuzz_case(17)))
    return out


def _memoized(spec):
    """Instance state beyond the dataclass fields (the memo, if any)."""
    names = {f.name for f in dataclasses.fields(spec)}
    return [value for name, value in vars(spec).items() if name not in names]


@pytest.mark.parametrize("spec", specs(), ids=lambda spec: spec.name)
def test_memoized_key_equals_a_fresh_computation(spec):
    first = profile_key(spec)
    assert first == fresh_key(spec)
    assert profile_key(spec) is first
    assert _memoized(spec) == [first]


def test_builtin_template_keys_are_pinned():
    got = {
        t.name: (profile_key(template_spec(t)), workload_fingerprint(t.workload))
        for t in builtin_templates()
    }
    assert got == PINNED


def test_memo_is_invisible_to_equality_and_serialization():
    template = builtin_templates()[0]
    memoized, plain = template_spec(template), template_spec(template)
    profile_key(memoized)
    assert _memoized(memoized) and not _memoized(plain)
    assert memoized == plain
    assert dataclasses.asdict(memoized) == dataclasses.asdict(plain)
    assert tenant_spec_to_dict(memoized) == tenant_spec_to_dict(plain)
    assert {f.name for f in dataclasses.fields(memoized)} == set(
        dataclasses.asdict(memoized)
    )


def test_memo_survives_pickling():
    spec = tenant_from_fuzz_case(fuzz_case(23))
    key = profile_key(spec)
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == spec
    assert _memoized(restored) == [key]
    assert profile_key(restored) == key == fresh_key(restored)
    # A spec pickled before its key was computed hashes on first use.
    late = pickle.loads(pickle.dumps(template_spec(builtin_templates()[1])))
    assert profile_key(late) == fresh_key(late)


def test_replace_recomputes_the_key():
    spec = template_spec(builtin_templates()[2])
    key = profile_key(spec)
    moved = dataclasses.replace(spec, base_freq_ghz=2.0)
    assert not _memoized(moved)
    assert profile_key(moved) == fresh_key(moved) != key
    renamed = dataclasses.replace(spec, name="renamed")
    assert not _memoized(renamed)
    assert profile_key(renamed) == key


def test_key_bytes_over_every_template_shape():
    """Every builtin template x base frequency x quantum x predictor, and
    a promoted fuzz tenant: the memoized key (which splices in the
    workload's memoized JSON) equals the one-shot reference hash."""
    checked = 0
    for template in builtin_templates():
        for base in template.base_freqs:
            for quantum in template.quanta:
                for predictor in predictor_names():
                    spec = TenantSpec(
                        name=template.name,
                        workload=template.workload,
                        base_freq_ghz=base,
                        quantum_ns=quantum,
                        manager=ManagerConfig(),
                        predictor=predictor,
                    )
                    assert profile_key(spec) == reference_key(spec)
                    checked += 1
        assert workload_fingerprint(template.workload) == reference_digest(
            template.workload
        )
    assert checked >= 6 * 6 * 2
    promoted = tenant_from_fuzz_case(fuzz_case(31))
    assert profile_key(promoted) == reference_key(promoted)
    assert workload_fingerprint(promoted.workload) == reference_digest(
        promoted.workload
    )


def test_integer_base_frequency_keeps_its_json_text():
    """An int base frequency serializes as ``4``, not ``4.0``, exactly as
    the one-shot hash writes it."""
    template = builtin_templates()[0]
    spec = TenantSpec(
        name="int-base",
        workload=template.workload,
        base_freq_ghz=4,
        quantum_ns=200000,
        manager=ManagerConfig(),
    )
    assert profile_key(spec) == reference_key(spec)
    assert profile_key(spec) != profile_key(template_spec(template))
