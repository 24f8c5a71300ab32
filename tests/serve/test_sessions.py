"""Server-side governor sessions: config parsing, lifecycle, stepping."""

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.energy.manager import EnergyManager, ManagerConfig, interval_epochs
from repro.serve.protocol import ProtocolError
from repro.serve.sessions import (
    SessionStore,
    decision_to_wire,
    manager_config_from_wire,
)
from repro.sim.run import simulate_managed
from tests.util import lock_pair_program


@pytest.fixture()
def store():
    return SessionStore(haswell_i7_4770k())


def _managed_intervals():
    """A real managed run's (trace, per-interval epoch lists)."""
    spec = haswell_i7_4770k()
    manager = EnergyManager(spec, ManagerConfig(tolerable_slowdown=0.10))
    trace = simulate_managed(
        lock_pair_program(), manager, spec=spec, quantum_ns=50_000.0
    ).trace
    return manager, trace


def test_config_from_wire_defaults():
    config, predictor, ctp = manager_config_from_wire(None)
    assert config == ManagerConfig()
    assert predictor == "DEP+BURST"
    assert ctp is True


def test_config_from_wire_explicit_fields():
    config, predictor, ctp = manager_config_from_wire(
        {
            "tolerable_slowdown": 0.2,
            "objective": "min-edp",
            "slack_banking": True,
            "predictor": "M+CRIT",
            "across_epoch_ctp": False,
        }
    )
    assert config.tolerable_slowdown == 0.2
    assert config.objective == "min-edp"
    assert config.slack_banking is True
    assert predictor == "M+CRIT"
    assert ctp is False


@pytest.mark.parametrize(
    "payload",
    [
        "not a mapping",
        {"bogus_field": 1},
        {"predictor": 7},
        {"across_epoch_ctp": "yes"},
        {"tolerable_slowdown": -0.5},
        {"tolerable_slowdown": 10**400},
        {"tolerable_slowdown": float("nan")},
        {"hold_off": 10**400},
        {"min_busy_ns": float("inf")},
    ],
)
def test_config_from_wire_rejects_bad_payloads(payload):
    with pytest.raises(ProtocolError):
        manager_config_from_wire(payload)


def test_open_get_close_lifecycle(store):
    session_id = store.open({"tolerable_slowdown": 0.1})
    assert len(store) == 1
    assert store.opened == 1
    session = store.get(session_id)
    closed = store.close(session_id)
    assert closed is session
    assert len(store) == 0
    with pytest.raises(ProtocolError):
        store.get(session_id)
    with pytest.raises(ProtocolError):
        store.get(12345)  # non-string ids never resolve


def test_open_rejects_unknown_predictor(store):
    with pytest.raises(ProtocolError):
        store.open({"predictor": "NOSUCH"})


def test_session_limit(store):
    store.max_sessions = 2
    store.open(None)
    store.open(None)
    with pytest.raises(ProtocolError):
        store.open(None)


def test_step_replays_identical_decisions(store):
    # Feeding a managed run's intervals through a server-side session
    # must rebuild the in-process decision log exactly.
    local_manager, trace = _managed_intervals()
    session_id = store.open({"tolerable_slowdown": 0.1})
    decisions = []
    # The final record is closed at simulator teardown, after the last
    # quantum boundary; the live governor never saw it.
    for record in trace.intervals[:-1]:
        epochs = interval_epochs(record, trace)
        freq, decision = store.step(session_id, record, epochs)
        if decision is not None:
            decisions.append(decision)
            # A frequency is only returned when it actually changes.
            assert freq is None or freq == decision.chosen_freq_ghz
    local = [decision_to_wire(d) for d in local_manager.decisions]
    remote = [decision_to_wire(d) for d in decisions]
    assert remote == local


def test_decision_to_wire_fields():
    local_manager, _ = _managed_intervals()
    assert local_manager.decisions, "managed run produced no decisions"
    wire = decision_to_wire(local_manager.decisions[0])
    assert set(wire) == {
        "interval_index",
        "base_freq_ghz",
        "chosen_freq_ghz",
        "predicted_slowdown",
    }
