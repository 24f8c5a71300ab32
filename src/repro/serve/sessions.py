"""Server-side governor sessions (the ``govern`` endpoint's state).

Each session wraps one :class:`repro.energy.manager.EnergyManagerSession`
— the hold-off countdown, slack-banking accumulators and decision log all
live here, server-side, so a thin remote client stepping serialized
intervals obtains the byte-identical decision sequence an in-process
:class:`~repro.energy.manager.EnergyManager` run would have produced.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.arch.specs import MachineSpec
from repro.core.epochs import Epoch
from repro.core.predictors import get_predictor
from repro.energy.manager import (
    EnergyManagerSession,
    ManagerConfig,
    ManagerDecision,
)
from repro.serve.protocol import ProtocolError, encode_frame, require_number
from repro.serve.sharding import tag_session_id
from repro.sim.intervals import IntervalRecord

#: ManagerConfig fields settable over the wire.
_CONFIG_FIELDS = (
    "tolerable_slowdown",
    "hold_off",
    "min_busy_ns",
    "slack_banking",
    "objective",
)


def manager_config_from_wire(payload: Any) -> Tuple[ManagerConfig, str, bool]:
    """Parse a govern ``open`` config: (ManagerConfig, predictor, ctp)."""
    if payload is None:
        payload = {}
    if not isinstance(payload, Mapping):
        raise ProtocolError("bad-request", "config must be an object")
    unknown = set(payload) - set(_CONFIG_FIELDS) - {"predictor", "across_epoch_ctp"}
    if unknown:
        raise ProtocolError(
            "bad-request", f"unknown config field(s): {sorted(unknown)}"
        )
    kwargs = {key: payload[key] for key in _CONFIG_FIELDS if key in payload}
    for key, value in kwargs.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            require_number(value, f"config.{key}")
    predictor = payload.get("predictor", "DEP+BURST")
    if not isinstance(predictor, str):
        raise ProtocolError("bad-request", "config.predictor must be a string")
    ctp = payload.get("across_epoch_ctp", True)
    if not isinstance(ctp, bool):
        raise ProtocolError(
            "bad-request", "config.across_epoch_ctp must be a boolean"
        )
    try:
        config = ManagerConfig(**kwargs)
    except (ConfigError, TypeError) as exc:
        raise ProtocolError("bad-request", f"invalid config: {exc}") from exc
    return config, predictor, ctp


def decision_to_wire(decision: ManagerDecision) -> Dict[str, Any]:
    """ManagerDecision -> wire dict."""
    return {
        "interval_index": decision.interval_index,
        "base_freq_ghz": decision.base_freq_ghz,
        "chosen_freq_ghz": decision.chosen_freq_ghz,
        "predicted_slowdown": decision.predicted_slowdown,
    }


def decision_from_wire(payload: Mapping[str, Any]) -> ManagerDecision:
    """Wire dict -> ManagerDecision (the inverse of decision_to_wire)."""
    return ManagerDecision(
        interval_index=payload["interval_index"],
        base_freq_ghz=payload["base_freq_ghz"],
        chosen_freq_ghz=payload["chosen_freq_ghz"],
        predicted_slowdown=payload["predicted_slowdown"],
    )


def decision_log_bytes(decisions: Sequence[ManagerDecision]) -> bytes:
    """A decision log as one NDJSON frame: the ``govern`` close result.

    Every parity check (served vs. in-process, engine vs. engine) compares
    decision logs in this encoding, so "equal" means equal on the wire.
    """
    return encode_frame({"decisions": [decision_to_wire(d) for d in decisions]})


class SessionStore:
    """All live governor sessions of one server.

    In a worker pool, ``worker_id`` embeds this worker's identity in
    every minted session id (``g3@w1``), so an id names the worker its
    follow-up ``step``/``close`` frames belong to — see
    :mod:`repro.serve.sharding`. Standalone servers keep the historical
    bare ``g<N>`` ids.
    """

    def __init__(
        self,
        spec: MachineSpec,
        max_sessions: int = 1024,
        worker_id: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.max_sessions = max_sessions
        self.worker_id = worker_id
        self._sessions: Dict[str, EnergyManagerSession] = {}
        self._next_id = 0
        self.opened = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def open(self, config_payload: Any) -> str:
        """Create a session from a wire config; return its id."""
        if len(self._sessions) >= self.max_sessions:
            raise ProtocolError(
                "overloaded",
                f"session limit reached ({self.max_sessions}); close sessions "
                "or raise --max-sessions",
            )
        config, predictor_name, ctp = manager_config_from_wire(config_payload)
        try:
            predictor = get_predictor(predictor_name, across_epoch_ctp=ctp)
        except ConfigError as exc:
            raise ProtocolError("bad-request", str(exc)) from exc
        session = EnergyManagerSession(self.spec, config, predictor=predictor)
        self._next_id += 1
        session_id = f"g{self._next_id}"
        if self.worker_id is not None:
            session_id = tag_session_id(session_id, self.worker_id)
        self._sessions[session_id] = session
        self.opened += 1
        return session_id

    def get(self, session_id: Any) -> EnergyManagerSession:
        """Look a session up (``unknown-session`` if absent)."""
        session = self._sessions.get(session_id) if isinstance(session_id, str) else None
        if session is None:
            raise ProtocolError(
                "unknown-session", f"no open session {session_id!r}"
            )
        return session

    def step(
        self,
        session_id: Any,
        record: IntervalRecord,
        epochs: Sequence[Epoch],
    ) -> Tuple[Optional[float], Optional[ManagerDecision]]:
        """Advance one quantum; return (frequency-or-None, new decision)."""
        session = self.get(session_id)
        before = len(session.decisions)
        freq = session.step(record, epochs)
        decision = (
            session.decisions[-1] if len(session.decisions) > before else None
        )
        return freq, decision

    def close(self, session_id: Any) -> EnergyManagerSession:
        """Tear a session down; return it for a final summary."""
        session = self.get(session_id)
        del self._sessions[session_id]
        return session
