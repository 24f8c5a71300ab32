"""Wire protocol of the prediction service (version 1).

Frames are newline-delimited JSON: one UTF-8 JSON object per line, LF
terminated, no embedded newlines. Requests carry::

    {"v": 1, "kind": "predict" | "govern" | "health" | "stats", "id": ..., ...}

``v`` is the protocol version (this module speaks exactly
:data:`PROTOCOL_VERSION`); ``id`` is an optional client correlation token
echoed verbatim in the reply. Replies are::

    {"v": 1, "id": ..., "ok": true,  "result": {...}}
    {"v": 1, "id": ..., "ok": false, "error": {"code": "...", "message": "..."}}

Error codes are a closed set (:data:`ERROR_CODES`); ``overloaded`` is the
backpressure signal — the request was shed, not queued — and clients are
expected to retry with their own policy.

Counter sets travel as 7-element arrays in
:data:`~repro.arch.counters.COUNTER_FIELDS` order; epochs as::

    {"start_ns": f, "end_ns": f, "stall_tid": int | null,
     "during_gc": bool, "threads": {"<tid>": [7 numbers]}}

All numbers must be finite doubles (an integer beyond the double range
is rejected like ``NaN``); counters non-negative. ``during_gc`` is a
JSON boolean (absent means false), ``stall_tid`` a non-boolean integer
or null, and thread keys canonical decimal — exactly what
:func:`epoch_to_wire` sends. JSON's ``repr``-based
float round-trip is exact for finite doubles, which is what makes the
serve replay driver's byte-identical decision parity possible.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.common.errors import ReproError
from repro.arch.counters import COUNTER_FIELDS, CounterSet
from repro.core.epochs import Epoch
from repro.sim.intervals import IntervalRecord

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 1

#: Default cap on a single frame's encoded size (1 MiB).
MAX_FRAME_BYTES = 1 << 20

#: Request kinds the server dispatches on.
REQUEST_KINDS = ("predict", "govern", "health", "stats")

#: Closed set of error codes replies may carry.
ERROR_CODES = (
    "bad-frame",      # not valid JSON, not an object, or oversized
    "bad-version",    # protocol version mismatch
    "bad-request",    # schema violation (missing/invalid fields)
    "unknown-session",  # govern step/close on a session that does not exist
    "overloaded",     # shed by backpressure; retry later
    "predict-error",  # the predictor rejected the inputs
    "internal",       # unexpected server-side failure
)


class ProtocolError(ReproError):
    """A frame violated the wire protocol."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialize one frame: compact JSON + LF."""
    return (
        json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a frame dict (``bad-frame`` on junk)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError and UnicodeDecodeError: an integer
        # literal past the interpreter's digit limit, or nesting deeper
        # than the recursion limit. All junk on the wire.
        raise ProtocolError("bad-frame", f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad-frame", f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def check_envelope(frame: Mapping[str, Any]) -> str:
    """Validate version and kind; return the request kind."""
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-version",
            f"unsupported protocol version {version!r}; "
            f"this server speaks v{PROTOCOL_VERSION}",
        )
    kind = frame.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            "bad-request", f"unknown kind {kind!r}; expected one of {REQUEST_KINDS}"
        )
    return kind


def ok_reply(request: Mapping[str, Any], result: Mapping[str, Any]) -> Dict[str, Any]:
    """Success reply envelope echoing the request's correlation id."""
    return {"v": PROTOCOL_VERSION, "id": request.get("id"), "ok": True,
            "result": result}


def error_reply(
    request: Optional[Mapping[str, Any]], code: str, message: str
) -> Dict[str, Any]:
    """Error reply envelope (``request`` may be None for unparsable frames)."""
    assert code in ERROR_CODES, code
    return {
        "v": PROTOCOL_VERSION,
        "id": request.get("id") if isinstance(request, Mapping) else None,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# ----------------------------------------------------------------------
# Payload (de)serialization
# ----------------------------------------------------------------------


#: Largest finite double, as an integer: a wire integer above it has no
#: float value (an int-to-int comparison keeps the hot path cheap).
_FLOAT_MAX = int(sys.float_info.max)


def require_number(value: Any, what: str, minimum: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("bad-request", f"{what} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > _FLOAT_MAX:
        raise ProtocolError(
            "bad-request", f"{what} must be a finite double, got an integer "
            "beyond the double range",
        )
    number = float(value)
    if not math.isfinite(number):
        raise ProtocolError("bad-request", f"{what} must be finite, got {value!r}")
    if minimum is not None and number < minimum:
        raise ProtocolError(
            "bad-request", f"{what} must be >= {minimum}, got {value!r}"
        )
    return number


def counters_to_wire(counters: CounterSet) -> List[float]:
    """CounterSet -> 7-element array in COUNTER_FIELDS order."""
    return [getattr(counters, field) for field in COUNTER_FIELDS]


def counters_from_wire(values: Any, what: str = "counters") -> CounterSet:
    """7-element array -> CounterSet, validating shape and ranges."""
    # Fast path: well-formed frames dominate the predict hot loop (dozens
    # of counter arrays per request), so validate with type checks alone
    # and only fall through to the per-element path — which produces the
    # precise field-level error message — when something is off.
    if isinstance(values, list) and len(values) == len(COUNTER_FIELDS):
        valid = True
        for v in values:
            t = type(v)
            if t is float:
                if not (0.0 <= v < math.inf):  # rejects nan/inf/negative
                    valid = False
                    break
            elif t is int:
                if v < 0 or v > _FLOAT_MAX:
                    valid = False
                    break
            else:
                valid = False
                break
        if valid:
            return CounterSet(
                active_ns=float(values[0]),
                crit_ns=float(values[1]),
                leading_ns=float(values[2]),
                stall_ns=float(values[3]),
                sqfull_ns=float(values[4]),
                insns=int(values[5]),
                stores=int(values[6]),
            )
    if not isinstance(values, list) or len(values) != len(COUNTER_FIELDS):
        raise ProtocolError(
            "bad-request",
            f"{what} must be an array of {len(COUNTER_FIELDS)} numbers "
            f"in {COUNTER_FIELDS} order",
        )
    numbers = [
        require_number(v, f"{what}[{field}]", minimum=0.0)
        for field, v in zip(COUNTER_FIELDS, values)
    ]
    return CounterSet(
        active_ns=numbers[0],
        crit_ns=numbers[1],
        leading_ns=numbers[2],
        stall_ns=numbers[3],
        sqfull_ns=numbers[4],
        insns=int(numbers[5]),
        stores=int(numbers[6]),
    )


def epoch_to_wire(epoch: Epoch) -> Dict[str, Any]:
    """Epoch -> wire dict."""
    return {
        "start_ns": epoch.start_ns,
        "end_ns": epoch.end_ns,
        "stall_tid": epoch.stall_tid,
        "during_gc": epoch.during_gc,
        "threads": {
            str(tid): counters_to_wire(counters)
            for tid, counters in epoch.thread_deltas.items()
        },
    }


#: Canonical keys of the common thread ids: one dict probe replaces the
#: parse and the round trip back to text that prove a key canonical.
_TID_OF_KEY = {str(tid): tid for tid in range(256)}


def epoch_from_wire(payload: Any, index: int) -> Epoch:
    """Wire dict -> Epoch, validating every field."""
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", f"epochs[{index}] must be an object")
    start = require_number(payload.get("start_ns"), f"epochs[{index}].start_ns")
    end = require_number(payload.get("end_ns"), f"epochs[{index}].end_ns")
    if end < start:
        raise ProtocolError(
            "bad-request", f"epochs[{index}] ends before it starts"
        )
    stall_tid = payload.get("stall_tid")
    if stall_tid is not None and type(stall_tid) is not int:  # rejects bool
        raise ProtocolError(
            "bad-request", f"epochs[{index}].stall_tid must be an int or null"
        )
    during_gc = payload.get("during_gc", False)
    if type(during_gc) is not bool:
        raise ProtocolError(
            "bad-request", f"epochs[{index}].during_gc must be a boolean"
        )
    threads_raw = payload.get("threads", {})
    if not isinstance(threads_raw, dict):
        raise ProtocolError(
            "bad-request", f"epochs[{index}].threads must be an object"
        )
    deltas: Dict[int, CounterSet] = {}
    for key, values in threads_raw.items():
        tid = _TID_OF_KEY.get(key)
        if tid is None:
            try:
                tid = int(key)
            except (TypeError, ValueError):
                tid = None
            if tid is None or str(tid) != key:
                raise ProtocolError(
                    "bad-request",
                    f"epochs[{index}].threads key {key!r} is not a thread id "
                    "in canonical decimal",
                )
        deltas[tid] = counters_from_wire(
            values, what=f"epochs[{index}].threads[{key}]"
        )
    return Epoch(
        index=index,
        start_ns=start,
        end_ns=end,
        thread_deltas=deltas,
        stall_tid=stall_tid,
        during_gc=during_gc,
    )


def epochs_from_wire(payload: Any) -> List[Epoch]:
    """Wire epoch array -> Epoch list."""
    if not isinstance(payload, list):
        raise ProtocolError("bad-request", "epochs must be an array")
    return [epoch_from_wire(entry, i) for i, entry in enumerate(payload)]


def record_to_wire(record: IntervalRecord) -> Dict[str, Any]:
    """IntervalRecord -> wire dict (aggregate counters only).

    The quantum-step logic consumes only the record's timing, frequency
    and cross-thread counter aggregate, so the wire form carries exactly
    those — not the per-thread map.
    """
    return {
        "index": record.index,
        "start_ns": record.start_ns,
        "end_ns": record.end_ns,
        "freq_ghz": record.freq_ghz,
        "counters": counters_to_wire(record.aggregate()),
    }


def record_from_wire(payload: Any) -> IntervalRecord:
    """Wire dict -> IntervalRecord equivalent for session stepping."""
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "record must be an object")
    index = payload.get("index")
    if not isinstance(index, int) or isinstance(index, bool):
        raise ProtocolError("bad-request", "record.index must be an int")
    start = require_number(payload.get("start_ns"), "record.start_ns")
    end = require_number(payload.get("end_ns"), "record.end_ns")
    if end < start:
        raise ProtocolError("bad-request", "record ends before it starts")
    freq = require_number(payload.get("freq_ghz"), "record.freq_ghz", minimum=1e-9)
    counters = counters_from_wire(payload.get("counters"), what="record.counters")
    return IntervalRecord(
        index=index,
        start_ns=start,
        end_ns=end,
        freq_ghz=freq,
        per_thread={0: counters},
    )


def target_freqs_from_wire(payload: Any, fallback: Sequence[float]) -> List[float]:
    """Validate an optional target-frequency array (default: ``fallback``)."""
    if payload is None:
        return list(fallback)
    if not isinstance(payload, list) or not payload:
        raise ProtocolError(
            "bad-request", "target_freqs_ghz must be a non-empty array"
        )
    return [
        require_number(value, f"target_freqs_ghz[{i}]", minimum=1e-9)
        for i, value in enumerate(payload)
    ]
