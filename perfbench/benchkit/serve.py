"""serve: a ``repro-serve --workers 1`` subprocess on a unix socket.

The benchmark process is the single load generator; it uses two
connections. Each rep spawns a fresh server (empty prediction cache)
and drives it in three phases:

1. **closed loop, 0% hits** — :data:`COLD_REQUESTS` distinct ``predict``
   requests on connection A with :data:`WINDOW` in flight, so the
   coalescing batcher fills. Its wall time is the workload's ``wall_s``.
2. **capacity, ~90% hits** — :data:`CAPACITY_REQUESTS` ``predict``
   requests on connection A, closed loop with :data:`WINDOW` in flight,
   in the open loop's mix: :data:`HIT_SHARE` of them repeat a phase-1
   request. Its throughput is what the server and this generator can
   do on that mix, so every run reports the load the open loop offers.
3. **open loop, ~90% hits** — :data:`OPEN_REQUESTS` ``predict`` requests
   in the same mix on connection A at a pinned :data:`OPEN_RATE`, each
   timed from when it was due. The rate is pinned in requests per
   reference second (:mod:`benchkit.calib`), so the load it offers does
   not drift with the host's speed.

From phase 2 to the end of phase 3, connection B runs closed-loop
``govern`` sessions stepping through seeded traces' intervals.

Every input comes from ``--seed``: seeded variants of the fleet's six
workload families are simulated in-process at 1 and 4 GHz during
set-up, and every expected reply — scalar-path predictions and
in-process governor decisions — is computed from them before the first
server starts. Every reply is checked.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from benchkit import calib, checks, stats

COLD_REQUESTS = 3000
WINDOW = 16
CAPACITY_REQUESTS = 2000
OPEN_REQUESTS = 3000
#: Offered rate of the open loop, in requests per reference second:
#: 40% of the phase-2 capacity measured on the 2-CPU host of
#: ``perfbench/BENCHMARK.md`` (about 10,000 per reference second). A run
#: reports the capacity it measured and the share of it this rate
#: offered (``loadgen.capacity_rps``, ``loadgen.offered_load``).
OPEN_RATE = 4000.0
HIT_SHARE = 0.9
#: Server flags: one worker, an in-memory prediction cache large enough
#: that phase-1 answers stay cached for phases 2 and 3, defaults otherwise.
SERVER_ARGS = ("--workers", "1", "--predict-cache-mem", "16384")
QUANTUM_NS = 5.0e5
#: Relative tolerance of a prediction against the in-process scalar path.
REL_TOL = 1e-9
SOCKET_TIMEOUT_S = 30.0


@dataclass
class Predict:
    """One distinct predict request: its frame minus the id, and answer."""

    body: bytes
    targets: Tuple[float, ...]
    expected: List[float]

    def frame(self, request_id: int) -> bytes:
        return self.body + str(request_id).encode() + b"}\n"


@dataclass
class GovernTrace:
    """One govern session: pre-encoded step tails and expected replies."""

    steps: List[bytes]
    expected: List[Optional[float]]


@dataclass
class Inputs:
    cold: List[Predict]
    #: Phase 2 and phase 3 requests: mixes of repeated cold requests
    #: (hits) and new ones (misses).
    capacity: List[Predict]
    open: List[Predict]
    govern: List[GovernTrace]
    #: (index into cold, actual ns, "up"/"down") of whole-trace predicts.
    whole: List[Tuple[int, float, str]]
    open_config: bytes
    encode_s: float


def _predict_body(protocol, epochs, base: float, targets) -> bytes:
    frame = {
        "v": protocol.PROTOCOL_VERSION,
        "kind": "predict",
        "predictor": "DEP+BURST",
        "across_epoch_ctp": True,
        "base_freq_ghz": base,
        "epochs": [protocol.epoch_to_wire(e) for e in epochs],
        "target_freqs_ghz": list(targets),
    }
    # The id goes last, as the client library sends it.
    return protocol.encode_frame(frame)[:-2] + b',"id":'


def build_inputs(seed: int) -> Inputs:
    """Every request and expected reply of a run, from ``seed`` alone."""
    from repro.arch.specs import haswell_i7_4770k
    from repro.core.epochs import extract_epochs
    from repro.core.predictors import get_predictor
    from repro.core.vectorized import PredictJob, scalar_results
    from repro.energy.manager import (
        EnergyManagerSession,
        ManagerConfig,
        interval_epochs,
    )
    from repro.fleet.corpus import builtin_templates
    from repro.serve import protocol
    from repro.sim.run import simulate
    from repro.workloads.synthetic import build_synthetic_program

    rng = random.Random(f"perfbench-serve-{seed}")
    spec = haswell_i7_4770k()
    freqs = spec.frequencies()
    predictor = get_predictor("DEP+BURST")
    traces = []  # (trace, epochs) per (program, base)
    actual: Dict[Tuple[int, float], float] = {}
    for p, template in enumerate(builtin_templates()):
        workload = replace(
            template.workload, seed=rng.randrange(1 << 30),
            name=f"serve-{template.name}",
        )
        program = build_synthetic_program(workload)
        for base in (1.0, 4.0):
            trace = simulate(program, base, spec=spec, quantum_ns=QUANTUM_NS).trace
            traces.append((p, base, trace, extract_epochs(trace.events)))
            actual[(p, base)] = trace.total_ns

    def expected(epochs, base, targets) -> List[float]:
        job = PredictJob(
            predictor=predictor, epochs=epochs, base_freq_ghz=base,
            target_freqs_ghz=tuple(targets),
        )
        return list(scalar_results(job))

    encode_s = 0.0
    seen = set()

    def make(epochs_of, lo, hi, base, targets) -> Predict:
        nonlocal encode_s
        started = time.perf_counter()
        body = _predict_body(protocol, epochs_of[lo:hi], base, targets)
        encode_s += time.perf_counter() - started
        return Predict(body, tuple(targets), expected(epochs_of[lo:hi], base, targets))

    cold: List[Predict] = []
    whole: List[Tuple[int, float, str]] = []
    # Whole-trace predictions, 1 -> 4 GHz and 4 -> 1 GHz, score accuracy.
    for p, base, trace, epochs in traces:
        target = 4.0 if base == 1.0 else 1.0
        seen.add((p, base, 0, len(epochs), (target,)))
        whole.append((len(cold), actual[(p, target)], "up" if base == 1.0 else "down"))
        cold.append(make(epochs, 0, len(epochs), base, (target,)))

    def distinct() -> Predict:
        while True:
            p, base, trace, epochs = traces[rng.randrange(len(traces))]
            length = rng.randint(1, min(16, len(epochs)))
            lo = rng.randrange(len(epochs) - length + 1)
            targets = tuple(sorted(rng.sample(freqs, rng.randint(1, 4))))
            key = (p, base, lo, lo + length, targets)
            if key not in seen:
                seen.add(key)
                return make(epochs, lo, lo + length, base, targets)

    while len(cold) < COLD_REQUESTS:
        cold.append(distinct())

    def mix(n: int) -> List[Predict]:
        hits = int(round(n * HIT_SHARE))
        requests = [cold[rng.randrange(len(cold))] for _ in range(hits)]
        requests += [distinct() for _ in range(n - hits)]
        rng.shuffle(requests)
        return requests

    capacity = mix(CAPACITY_REQUESTS)
    opened = mix(OPEN_REQUESTS)

    config = ManagerConfig()
    open_config = json.dumps({
        "predictor": "DEP+BURST", "across_epoch_ctp": True,
        "tolerable_slowdown": config.tolerable_slowdown,
        "hold_off": config.hold_off, "min_busy_ns": config.min_busy_ns,
        "slack_banking": config.slack_banking, "objective": config.objective,
    }, separators=(",", ":")).encode()
    govern = []
    for p, base, trace, epochs in traces:
        session = EnergyManagerSession(spec, config)
        steps, want = [], []
        for record in trace.intervals[:-1]:
            window = interval_epochs(record, trace)
            want.append(session.step(record, window))
            started = time.perf_counter()
            steps.append(json.dumps({
                "record": protocol.record_to_wire(record),
                "epochs": [protocol.epoch_to_wire(e) for e in window],
            }, separators=(",", ":")).encode()[1:-1])
            encode_s += time.perf_counter() - started
        govern.append(GovernTrace(steps, want))
    rng.shuffle(govern)
    return Inputs(cold, capacity, opened, govern, whole, open_config, encode_s)


# ----------------------------------------------------------------------
# Wire
# ----------------------------------------------------------------------


class Conn:
    """A raw NDJSON connection: send bytes, read reply lines."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(SOCKET_TIMEOUT_S)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def readline(self) -> bytes:
        return self.reader.readline()

    def call(self, data: bytes) -> Dict[str, Any]:
        self.send(data)
        line = self.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LookupError("VmHWM missing")


class Server:
    """One ``repro-serve`` process, started and stopped by the benchmark."""

    def __init__(self, root: str, workdir: str) -> None:
        self.path = os.path.relpath(os.path.join(workdir, "s.sock"), root)
        self.log = open(os.path.join(workdir, "server.log"), "wb")
        env = dict(os.environ, PYTHONPATH="src")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--socket", self.path,
             *SERVER_ARGS],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )

    def wait_healthy(self) -> float:
        """Seconds from spawn until a ``health`` request is answered."""
        # The server prints its ready line once the socket is bound.
        line = self.proc.stdout.readline()
        if not line.startswith(b"repro-serve ready"):
            raise RuntimeError(f"server did not start: {line!r}")
        conn = Conn(self.path)
        try:
            reply = conn.call(b'{"v":1,"kind":"health","id":1}\n')
        finally:
            conn.close()
        if not reply.get("ok"):
            raise RuntimeError(f"health failed: {reply}")
        return time.perf_counter() - self.spawned

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------


def _closed_loop(
    conn: Conn, requests: List[Predict], first_id: int
) -> Tuple[float, List[bytes]]:
    """Closed loop with WINDOW in flight; returns (wall, reply lines)."""
    n = len(requests)
    replies: List[bytes] = []
    started = time.perf_counter()
    sent = 0
    while sent < min(WINDOW, n):
        conn.send(requests[sent].frame(first_id + sent))
        sent += 1
    while len(replies) < n:
        line = conn.readline()
        if not line:
            break
        replies.append(line)
        if sent < n:
            conn.send(requests[sent].frame(first_id + sent))
            sent += 1
    return time.perf_counter() - started, replies


def _open_phase(conn: Conn, inputs: Inputs, first_id: int, rate: float):
    """Open loop at ``rate`` requests/s; returns (due, sent, received)
    per request."""
    n = len(inputs.open)
    due = [0.0] * n
    sent_at = [0.0] * n
    received: List[Tuple[float, bytes]] = []

    def receive() -> None:
        try:
            while len(received) < n:
                line = conn.readline()
                if not line:
                    return
                received.append((time.perf_counter(), line))
        except OSError:
            return

    receiver = threading.Thread(target=receive)
    receiver.start()
    start = time.perf_counter() + 0.01
    try:
        for i, request in enumerate(inputs.open):
            due[i] = start + i / rate
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at[i] = time.perf_counter()
            conn.send(request.frame(first_id + i))
    finally:
        receiver.join(SOCKET_TIMEOUT_S + 5)
    return due, sent_at, received


def _govern_loop(conn: Conn, inputs: Inputs, stop: threading.Event, out: Dict):
    """Closed-loop sessions until ``stop``; records step latency/outcome."""
    latencies: List[float] = []
    attempted = failed = 0
    request_id = 0
    cursor = 0
    try:
        while not stop.is_set():
            trace = inputs.govern[cursor % len(inputs.govern)]
            cursor += 1
            request_id += 1
            attempted += 1
            reply = conn.call(
                b'{"v":1,"kind":"govern","op":"open","config":'
                + inputs.open_config + b',"id":' + str(request_id).encode() + b"}\n"
            )
            if not reply.get("ok"):
                failed += 1
                continue
            session = json.dumps(reply["result"]["session"]).encode()
            for step, want in zip(trace.steps, trace.expected):
                request_id += 1
                attempted += 1
                frame = (b'{"v":1,"kind":"govern","op":"step","session":' + session
                         + b"," + step + b',"id":' + str(request_id).encode() + b"}\n")
                started = time.perf_counter()
                conn.send(frame)
                line = conn.readline()
                latencies.append(time.perf_counter() - started)
                if not line:
                    raise ConnectionError("server closed the govern connection")
                reply = json.loads(line)
                if not reply.get("ok") or reply["result"].get("freq_ghz") != want:
                    failed += 1
            request_id += 1
            attempted += 1
            reply = conn.call(
                b'{"v":1,"kind":"govern","op":"close","session":' + session
                + b',"id":' + str(request_id).encode() + b"}\n"
            )
            if not reply.get("ok"):
                failed += 1
    except (OSError, ValueError) as exc:
        out["error"] = repr(exc)
        failed += 1
        attempted += 1
    out.update(latencies=latencies, attempted=attempted, failed=failed)


def _check_predicts(
    replies: List[Dict[str, Any]], requests: List[Predict], first_id: int
) -> Tuple[int, Dict[int, Dict[str, Any]]]:
    """(failures, successful replies by request index)."""
    by_index: Dict[int, Dict[str, Any]] = {}
    for reply in replies:
        index = reply.get("id", 0) - first_id
        if 0 <= index < len(requests) and reply.get("ok"):
            by_index[index] = reply["result"]
    failed = 0
    for index, request in enumerate(requests):
        result = by_index.get(index)
        got = result.get("predicted_ns", []) if result else []
        if (
            result is None
            or tuple(result.get("target_freqs_ghz", ())) != request.targets
            or len(got) != len(request.expected)
            or not all(checks.close(a, b, REL_TOL) for a, b in zip(got, request.expected))
        ):
            failed += 1
            by_index.pop(index, None)
    return failed, by_index


def _hist_delta(after: Dict, before: Dict):
    from repro.serve.metrics import Histogram

    hist = Histogram.from_snapshot(after)
    hist.counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    hist.total = after["count"] - before["count"]
    hist.sum = after["sum"] - before["sum"]
    return hist


def _stats(conn: Conn) -> Dict[str, Any]:
    return conn.call(b'{"v":1,"kind":"stats","id":"stats"}\n')["result"]


def run_rep(inputs: Inputs, root: str, workdir: str, traced: bool) -> Dict[str, Any]:
    """Spawn a server, drive the three phases, check every reply, stop it."""
    loop_before = calib.host_loop_s()
    rate = OPEN_RATE * calib.to_reference(1.0, loop_before)
    server = Server(root, workdir)
    conns: List[Conn] = []
    try:
        setup_s = server.wait_healthy()
        a = Conn(server.path)
        conns.append(a)
        b = Conn(server.path)
        conns.append(b)
        snaps = []
        if traced:
            snaps.append(_stats(a))
        cpu0 = _cpu_s(server.proc.pid)
        wall, cold_lines = _closed_loop(a, inputs.cold, 1)
        cpu_s = _cpu_s(server.proc.pid) - cpu0
        if traced:
            snaps.append(_stats(a))
        stop = threading.Event()
        gov: Dict[str, Any] = {}
        governor = threading.Thread(target=_govern_loop, args=(b, inputs, stop, gov))
        governor.start()
        try:
            first_capacity = len(inputs.cold) + 1
            capacity_wall, capacity_lines = _closed_loop(
                a, inputs.capacity, first_capacity
            )
            if traced:
                snaps.append(_stats(a))
            first_open = first_capacity + len(inputs.capacity)
            due, sent_at, received = _open_phase(a, inputs, first_open, rate)
        finally:
            stop.set()
            governor.join(SOCKET_TIMEOUT_S + 5)
        if traced:
            snaps.append(_stats(a))
        rss_mb = _peak_rss_mb(server.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    loop = (loop_before + calib.host_loop_s()) / 2

    started = time.perf_counter()
    cold_replies = [json.loads(line) for line in cold_lines]
    capacity_replies = [json.loads(line) for line in capacity_lines]
    open_replies = [json.loads(line) for _, line in received]
    decode_s = time.perf_counter() - started
    cold_failed, cold_ok = _check_predicts(cold_replies, inputs.cold, 1)
    capacity_failed, _ = _check_predicts(
        capacity_replies, inputs.capacity, first_capacity
    )
    open_failed, open_ok = _check_predicts(open_replies, inputs.open, first_open)
    done_at = {
        reply.get("id", 0) - first_open: at
        for (at, _), reply in zip(received, open_replies)
    }
    latencies = stats.open_loop_latencies(
        [due[i] for i in open_ok], [done_at[i] for i in open_ok]
    )
    errors: Dict[str, List[float]] = {"up": [], "down": []}
    for index, actual_ns, direction in inputs.whole:
        if index in cold_ok:
            predicted = cold_ok[index]["predicted_ns"][0]
            errors[direction].append(abs(predicted - actual_ns) / actual_ns)
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall,
        "predict_rps": len(inputs.cold) / wall,
        "capacity_rps": len(inputs.capacity) / capacity_wall,
        "offered_load": rate * capacity_wall / len(inputs.capacity),
        "rss_mb": rss_mb,
        "cpu_s": cpu_s,
        "loop_s": loop,
        "open_latencies": latencies,
        "late": [s - d for s, d in zip(sent_at, due)],
        "step_latencies": gov.get("latencies", []),
        "attempted": (
            len(inputs.cold) + len(inputs.capacity) + len(inputs.open)
            + gov.get("attempted", 1)
        ),
        "failed": cold_failed + capacity_failed + open_failed + gov.get("failed", 1),
        "govern_error": gov.get("error"),
        "decode_s": decode_s,
        "pred_err_up_pct": 100.0 * sum(errors["up"]) / max(1, len(errors["up"])),
        "pred_err_down_pct": 100.0 * sum(errors["down"]) / max(1, len(errors["down"])),
    }
    if traced:
        from repro.serve.metrics import Histogram

        # s0..s1 is phase 1; s2..s3 the open loop.
        s0, s1, s2, s3 = snaps
        batch = _hist_delta(s1["batch_size"], s0["batch_size"])
        hits = s3["predict_cache"]["hits"] - s2["predict_cache"]["hits"]
        misses = s3["predict_cache"]["misses"] - s2["predict_cache"]["misses"]
        predict = _hist_delta(
            s3["endpoints"]["predict"]["latency_s"], s2["endpoints"]["predict"]["latency_s"]
        )
        govern_ep = s3["endpoints"].get("govern")
        out["layers"] = {
            "serve.batches": float(batch.total),
            "serve.batch_size_mean": batch.sum / batch.total if batch.total else 0.0,
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.predict_server_p50_ms": 1e3 * predict.quantile(0.5),
            "serve.step_server_p50_ms": (
                1e3 * Histogram.from_snapshot(govern_ep["latency_s"]).quantile(0.5)
                if govern_ep else 0.0
            ),
            "serve.overloaded": float(s3["overloaded"]),
            "serve.errors": float(sum(
                sum(ep["errors"].values()) for ep in s3["endpoints"].values()
            )),
            "serve.cpu_s": cpu_s,
            "serve.decode_s": out["decode_s"],
            "serve.encode_s": inputs.encode_s,
            "residual_s": wall - cpu_s,
            "predict_requests": float(s3["endpoints"]["predict"]["requests"]),
            "govern_requests": float(govern_ep["requests"] if govern_ep else 0),
        }
    return out
