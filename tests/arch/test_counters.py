"""CounterSet arithmetic."""

import pytest

from repro.arch.counters import COUNTER_FIELDS, CounterSet


def sample():
    return CounterSet(
        active_ns=100.0, crit_ns=20.0, leading_ns=10.0, stall_ns=5.0,
        sqfull_ns=7.0, insns=1000, stores=50,
    )


def test_copy_is_independent():
    a = sample()
    b = a.copy()
    b.active_ns += 1
    assert a.active_ns == 100.0


def test_add_accumulates_every_field():
    a = sample()
    a.add(sample())
    for field_name in COUNTER_FIELDS:
        assert getattr(a, field_name) == 2 * getattr(sample(), field_name)


def test_plus_operator():
    total = sample() + sample()
    assert total.insns == 2000
    assert total.sqfull_ns == pytest.approx(14.0)


def test_delta_since():
    early = sample()
    late = sample() + sample()
    delta = late.delta_since(early)
    assert delta == sample()


def test_is_zero():
    assert CounterSet().is_zero()
    assert not sample().is_zero()
    assert not CounterSet(insns=1).is_zero()


def test_delta_of_self_is_zero():
    a = sample()
    assert a.delta_since(a).is_zero()


def test_dataclass_style_init_eq_and_repr():
    assert CounterSet() == CounterSet(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    assert CounterSet(insns=3) != CounterSet(stores=3)
    assert sample() != tuple(getattr(sample(), f) for f in COUNTER_FIELDS)
    assert repr(CounterSet(crit_ns=2.5, insns=4)) == (
        "CounterSet(active_ns=0.0, crit_ns=2.5, leading_ns=0.0, "
        "stall_ns=0.0, sqfull_ns=0.0, insns=4, stores=0)"
    )


def test_slotted_and_unhashable():
    counters = sample()
    assert not hasattr(counters, "__dict__")
    with pytest.raises(AttributeError):
        counters.extra = 1
    with pytest.raises(TypeError):
        hash(counters)
