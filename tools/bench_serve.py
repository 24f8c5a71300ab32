"""Deadline-aware load harness for the online prediction service.

Usage::

    PYTHONPATH=src python tools/bench_serve.py                    # defaults
    PYTHONPATH=src python tools/bench_serve.py --workers 4 --clients 80
    PYTHONPATH=src python tools/bench_serve.py --duration 3 --min-rps 15572.65
    PYTHONPATH=src python tools/bench_serve.py --workers 4 \
        --compare-single --min-ratio 2.5

Stands up a real worker pool (:mod:`repro.serve.pool` — one process per
worker, private unix sockets, shared prediction cache, fleet metrics)
and hammers the ``predict`` endpoint from N connections spread over
multiple client *processes* (the client side must not serialize behind
one GIL while measuring a multi-process server). Two phases:

* **closed-loop** — every connection keeps ``--pipeline`` requests in
  flight for ``--duration`` seconds; measures peak sustainable
  throughput (the back-compatible ``req_per_s``) and its latency
  distribution;
* **open-loop** — requests are *scheduled* at a fixed offered rate
  (default: 30% of the closed-loop throughput) regardless of replies;
  latency is measured from the scheduled send time, so sender backlog
  counts against the server, and every reply slower than ``--deadline-ms``
  is a deadline miss.

The payload mix replays ``--unique`` distinct predict questions, the
governor-fleet pattern the shared prediction cache exists for; the
report carries the cache hit rate and the per-worker load skew so the
numbers can't be misread as cold-compute throughput.

``--min-rps``, ``--max-p99-ms`` and ``--max-miss-rate`` are absolute
gates; ``--compare-single`` reruns the whole load at ``--workers 1`` and
gates the multi/single throughput ratio on ``--min-ratio``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch.counters import CounterSet  # noqa: E402
from repro.core.epochs import Epoch  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.pool import WorkerPool  # noqa: E402
from repro.serve.server import ServeConfig  # noqa: E402


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------


def payload_epochs(n_epochs: int = 8, n_threads: int = 4, variant: int = 0):
    """A deterministic, realistically-shaped predict payload.

    ``variant`` perturbs the counter values so distinct variants key
    differently in the prediction cache while staying the same size.
    """
    epochs = []
    t = 0.0
    for i in range(n_epochs):
        span = 200_000.0 + 25_000.0 * ((i + variant) % 3) + 7.0 * variant
        deltas = {}
        for tid in range(n_threads):
            active = span * (0.5 + 0.1 * ((i + tid + variant) % 4))
            deltas[tid] = CounterSet(
                active_ns=active,
                crit_ns=active * 0.35,
                leading_ns=active * 0.20,
                stall_ns=active * 0.30,
                sqfull_ns=active * 0.05,
                insns=int(active * 1.5),
                stores=int(active * 0.2),
            )
        epochs.append(
            Epoch(
                index=i,
                start_ns=t,
                end_ns=t + span,
                thread_deltas=deltas,
                stall_tid=(i % n_threads) if i % 2 else None,
                during_gc=False,
            )
        )
        t += span
    return epochs


def payload_templates(args) -> list:
    """Pre-encoded request frames (id appended per send) for each variant."""
    templates = []
    for variant in range(args.unique):
        frame = {
            "v": protocol.PROTOCOL_VERSION,
            "kind": "predict",
            "predictor": args.predictor,
            "across_epoch_ctp": True,
            "base_freq_ghz": 1.0,
            "target_freqs_ghz": [2.0, 3.0, 4.0],
            "epochs": [
                protocol.epoch_to_wire(e)
                for e in payload_epochs(n_epochs=args.epochs, variant=variant)
            ],
        }
        encoded = json.dumps(frame, separators=(",", ":"))
        # Drop the closing brace: senders append ',"id":<n>}\n'.
        templates.append(encoded[:-1].encode("utf-8"))
    return templates


def _frame_bytes(template: bytes, request_id: int) -> bytes:
    return template + b',"id":%d}\n' % request_id


def _reply_id(line: bytes) -> int:
    # Replies always open with {"v":1,"id":<int>, — avoid a full JSON
    # parse on the measurement path.
    start = line.index(b'"id":') + 5
    end = line.index(b",", start)
    return int(line[start:end])


# ----------------------------------------------------------------------
# Client processes
# ----------------------------------------------------------------------


async def _closed_loop_conn(endpoint, templates, pipeline, stop_at, out):
    """One connection keeping ``pipeline`` requests in flight."""
    reader, writer = await _open_conn(endpoint)
    sent: dict = {}
    latencies = out["closed_lat"]
    next_id = 0
    try:
        while time.perf_counter() < stop_at:
            while len(sent) < pipeline:
                next_id += 1
                sent[next_id] = time.perf_counter()
                writer.write(_frame_bytes(templates[next_id % len(templates)],
                                          next_id))
            await writer.drain()
            line = await reader.readline()
            if not line:
                out["errors"] += 1
                return
            latencies.append(time.perf_counter() - sent.pop(_reply_id(line)))
        # Drain what is still in flight (measured; after stop_at, so it
        # does not inflate the timed window's request count).
        while sent:
            line = await reader.readline()
            if not line:
                out["errors"] += len(sent)
                return
            sent.pop(_reply_id(line), None)
    finally:
        writer.close()


async def _open_loop_conn(endpoint, templates, rate, duration, out,
                          offset=0.0):
    """One connection sending on a fixed schedule (open loop).

    ``offset`` phase-shifts this connection's schedule so the fleet's
    sends interleave uniformly; without it every connection fires at
    the same instants and the "fixed rate" degenerates into periodic
    thundering herds that measure queue spikes, not the offered rate.
    """
    reader, writer = await _open_conn(endpoint)
    sent: dict = {}
    latencies = out["open_lat"]
    interval = 1.0 / rate
    started = time.perf_counter() + offset
    stop_at = started + duration
    next_id = 0

    async def receiver():
        while True:
            line = await reader.readline()
            if not line:
                return
            arrival = sent.pop(_reply_id(line), None)
            if arrival is not None:
                latencies.append(time.perf_counter() - arrival)

    recv_task = asyncio.get_running_loop().create_task(receiver())
    try:
        scheduled = started
        while scheduled < stop_at:
            now = time.perf_counter()
            if now < scheduled:
                await asyncio.sleep(scheduled - now)
            next_id += 1
            # Latency is charged from the *scheduled* arrival, so a
            # backlogged sender shows up as latency, not lost load.
            sent[next_id] = scheduled
            writer.write(_frame_bytes(templates[next_id % len(templates)],
                                      next_id))
            if next_id % 64 == 0:
                # Drain rarely: per-send drains cost a task switch each,
                # and send-side backlog is already charged as latency.
                await writer.drain()
            scheduled += interval
        out["open_sent"] += next_id
        # Grace period for stragglers; unanswered requests count as
        # deadline misses via open_unanswered.
        grace = time.perf_counter() + 2.0
        while sent and time.perf_counter() < grace:
            await asyncio.sleep(0.01)
        out["open_unanswered"] += len(sent)
    finally:
        recv_task.cancel()
        writer.close()


async def _open_conn(endpoint):
    kind, target = endpoint
    if kind == "unix":
        return await asyncio.open_unix_connection(target)
    host, port = target
    return await asyncio.open_connection(host, port)


async def _client_proc_async(endpoints, templates, args, phase, rate,
                             offsets, out):
    stop_at = time.perf_counter() + args.duration
    if phase == "closed":
        tasks = [
            _closed_loop_conn(endpoint, templates, args.pipeline, stop_at, out)
            for endpoint in endpoints
        ]
    else:
        per_conn_rate = rate / len(endpoints)
        tasks = [
            _open_loop_conn(endpoint, templates, per_conn_rate,
                            args.duration, out, offset=offset)
            for endpoint, offset in zip(endpoints, offsets)
        ]
    await asyncio.gather(*tasks)


def _client_main(endpoints, templates, args, phase, rate, offsets,
                 queue) -> None:
    """Entry point of one client process (fork or spawn safe)."""
    out = {"closed_lat": [], "open_lat": [], "errors": 0,
           "open_sent": 0, "open_unanswered": 0}
    try:
        asyncio.run(_client_proc_async(
            endpoints, templates, args, phase, rate, offsets, out
        ))
    except Exception:
        out["errors"] += len(endpoints)
    queue.put(out)


def _run_phase(endpoints, templates, args, phase, rate=None):
    """Fan one load phase out over client processes; merge their results."""
    n_procs = min(args.client_procs, len(endpoints))
    groups = [endpoints[i::n_procs] for i in range(n_procs)]
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    queue = context.Queue()
    per_proc_rate = (rate / n_procs) if rate else None
    processes = []
    started = time.perf_counter()
    for i, group in enumerate(groups):
        group_rate = (
            per_proc_rate * (len(group) * n_procs / len(endpoints))
            if per_proc_rate else None
        )
        # Interleave the fleet's schedules: connection with global index
        # g fires at g/rate, g/rate + n/rate, ... so the offered load is
        # uniform in time instead of synchronized bursts of --clients.
        offsets = (
            [(i + j * n_procs) / rate for j in range(len(group))]
            if rate else None
        )
        process = context.Process(
            target=_client_main,
            args=(group, templates, args, phase, group_rate, offsets, queue),
            daemon=True,
        )
        process.start()
        processes.append(process)
    merged = {"closed_lat": [], "open_lat": [], "errors": 0,
              "open_sent": 0, "open_unanswered": 0}
    for _ in processes:
        out = queue.get()
        merged["closed_lat"].extend(out["closed_lat"])
        merged["open_lat"].extend(out["open_lat"])
        for key in ("errors", "open_sent", "open_unanswered"):
            merged[key] += out[key]
    for process in processes:
        process.join()
    merged["elapsed_s"] = time.perf_counter() - started
    return merged


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def latency_summary(latencies) -> dict:
    """min/mean/p50/p99/p99.9/max plus the two jitter measures."""
    values = sorted(latencies)
    if not values:
        return {"min": 0.0, "mean": 0.0, "median": 0.0, "p50": 0.0,
                "p99": 0.0, "p999": 0.0, "max": 0.0, "stddev_ms": 0.0,
                "jitter_p99_p50": 0.0}
    p50 = _quantile(values, 0.50)
    p99 = _quantile(values, 0.99)
    return {
        "min": round(values[0] * 1e3, 3),
        "mean": round(sum(values) / len(values) * 1e3, 3),
        "median": round(p50 * 1e3, 3),
        "p50": round(p50 * 1e3, 3),
        "p99": round(p99 * 1e3, 3),
        "p999": round(_quantile(values, 0.999) * 1e3, 3),
        "max": round(values[-1] * 1e3, 3),
        "stddev_ms": round(
            statistics.pstdev(values) * 1e3 if len(values) > 1 else 0.0, 3
        ),
        "jitter_p99_p50": round((p99 - p50) * 1e3, 3),
    }


def _worker_predict_counts(pool: WorkerPool) -> dict:
    """Exact predict-requests per worker, asked of each worker directly."""
    counts = {}
    for worker_id in range(pool.n_workers):
        with ServeClient.connect(**pool.worker_endpoint(worker_id)) as probe:
            snapshot = probe.stats()
            endpoint = (snapshot.get("endpoints") or {}).get("predict") or {}
            counts[str(worker_id)] = int(endpoint.get("requests", 0))
    return counts


def load_skew(counts: dict) -> float:
    """max/mean per-worker load; 1.0 = perfectly balanced."""
    values = list(counts.values())
    if not values or sum(values) == 0:
        return 0.0
    return round(max(values) / (sum(values) / len(values)), 3)


# ----------------------------------------------------------------------
# The bench
# ----------------------------------------------------------------------


def bench_endpoints(pool, args):
    """(kind, target) connection tuples for every client connection."""
    if args.topology == "direct":
        paths = pool.worker_paths()
        return [("unix", paths[i % len(paths)]) for i in range(args.clients)]
    return [("tcp", (pool.base.host, pool.base.port))] * args.clients


def run_load(args, n_workers: int) -> dict:
    """Run both phases against an ``n_workers`` pool; return the report."""
    templates = payload_templates(args)
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        if args.topology == "tcp":
            serve_config = ServeConfig(
                host="127.0.0.1",
                max_batch=args.max_batch,
                predict_cache_mem=args.cache_mem,
            )
        else:
            serve_config = ServeConfig(
                socket_path=os.path.join(tmp, "serve.sock"),
                max_batch=args.max_batch,
                predict_cache_mem=args.cache_mem,
            )
        pool = WorkerPool(serve_config, n_workers,
                          shared_cache=args.cache_mem > 0 and n_workers > 1)
        pool.start()
        try:
            endpoints = bench_endpoints(pool, args)
            # Warm every unique payload through each worker so the timed
            # phases measure the steady state the cache is built for.
            for worker_id in range(pool.n_workers):
                with ServeClient.connect(
                    **pool.worker_endpoint(worker_id)
                ) as warm:
                    for i, template in enumerate(templates):
                        warm.send_raw(_frame_bytes(template, i + 1))
                        warm.read_reply()
            # The closed-loop phase measures peak sustainable throughput
            # at a *bounded* concurrency (in-flight = connections x
            # pipeline; Little's law says the latency floor scales with
            # it). The open-loop phase then drives the full --clients
            # connection count at a fixed offered rate.
            closed_n = min(args.closed_clients or len(endpoints),
                           len(endpoints))
            closed = _run_phase(endpoints[:closed_n], templates, args,
                                "closed")
            requests = len(closed["closed_lat"])
            req_per_s = requests / closed["elapsed_s"]
            offered = args.rate or req_per_s * 0.3
            open_phase = _run_phase(endpoints, templates, args, "open",
                                    rate=offered)
            per_worker = _worker_predict_counts(pool)
            with ServeClient.connect(**pool.worker_endpoint(0)) as reader:
                stats = reader.stats()
        finally:
            pool.stop()

    deadline_s = args.deadline_ms / 1000.0
    open_lat = open_phase["open_lat"]
    open_answered = len(open_lat)
    open_misses = (
        sum(1 for v in open_lat if v > deadline_s)
        + open_phase["open_unanswered"]
    )
    fleet_cache = (stats.get("fleet") or stats).get("predict_cache", {})
    cache_lookups = fleet_cache.get("hits", 0) + fleet_cache.get("misses", 0)
    return {
        "benchmark": "serve_predict",
        "config": {
            "workers": n_workers,
            "topology": args.topology,
            "clients": args.clients,
            "closed_clients": closed_n,
            "client_procs": min(args.client_procs, args.clients),
            "pipeline": args.pipeline,
            "duration_s": args.duration,
            "predictor": args.predictor,
            "max_batch": args.max_batch,
            "epochs_per_request": args.epochs,
            "unique_payloads": args.unique,
            "cache_mem": args.cache_mem,
            "deadline_ms": args.deadline_ms,
            "scale": float(os.environ.get("REPRO_SCALE", "1.0")),
        },
        "elapsed_s": round(closed["elapsed_s"], 3),
        "requests": requests,
        "errors": closed["errors"] + open_phase["errors"],
        "req_per_s": round(req_per_s, 1),
        "latency_ms": latency_summary(closed["closed_lat"]),
        "open_loop": {
            "offered_rps": round(offered, 1),
            "sent": open_phase["open_sent"],
            "answered": open_answered,
            "unanswered": open_phase["open_unanswered"],
            "achieved_rps": round(
                open_answered / open_phase["elapsed_s"], 1
            ) if open_phase["elapsed_s"] else 0.0,
            "deadline_ms": args.deadline_ms,
            "deadline_misses": open_misses,
            "deadline_miss_rate": round(
                open_misses / max(1, open_phase["open_sent"]), 6
            ),
            "latency_ms": latency_summary(open_lat),
        },
        "cache": {
            "hits": fleet_cache.get("hits", 0),
            "misses": fleet_cache.get("misses", 0),
            "stores": fleet_cache.get("stores", 0),
            "hit_rate": round(
                fleet_cache.get("hits", 0) / cache_lookups, 4
            ) if cache_lookups else 0.0,
        },
        "per_worker_predict_requests": per_worker,
        "load_skew": load_skew(per_worker),
        "batch_size": stats["batch_size"],
        "server_overloaded": stats["overloaded"],
    }


def run_bench(args) -> dict:
    """Run the configured load (and the single-worker reference if asked)."""
    payload = run_load(args, args.workers)
    if args.compare_single and args.workers > 1:
        single = run_load(args, 1)
        payload["single_worker"] = {
            "req_per_s": single["req_per_s"],
            "p99_ms": single["latency_ms"]["p99"],
            "deadline_miss_rate":
                single["open_loop"]["deadline_miss_rate"],
        }
        payload["throughput_ratio"] = round(
            payload["req_per_s"] / max(1e-9, single["req_per_s"]), 3
        )
    return payload


# ----------------------------------------------------------------------
# Gates / CLI
# ----------------------------------------------------------------------


def check_gates(payload, args) -> int:
    failures = []
    if args.min_rps is not None and payload["req_per_s"] < args.min_rps:
        failures.append(
            f"FAIL: {payload['req_per_s']} req/s is below the "
            f"{args.min_rps} req/s floor"
        )
    if args.max_p99_ms is not None and \
            payload["latency_ms"]["p99"] > args.max_p99_ms:
        failures.append(
            f"FAIL: closed-loop p99 {payload['latency_ms']['p99']}ms "
            f"exceeds {args.max_p99_ms}ms"
        )
    if args.max_miss_rate is not None and \
            payload["open_loop"]["deadline_miss_rate"] > args.max_miss_rate:
        failures.append(
            f"FAIL: deadline-miss rate "
            f"{payload['open_loop']['deadline_miss_rate']} exceeds "
            f"{args.max_miss_rate}"
        )
    if args.min_ratio is not None:
        ratio = payload.get("throughput_ratio")
        if ratio is None:
            failures.append(
                "FAIL: --min-ratio needs --compare-single and --workers > 1"
            )
        elif ratio < args.min_ratio:
            failures.append(
                f"FAIL: multi/single throughput ratio {ratio} is below "
                f"{args.min_ratio}"
            )
        else:
            print(f"ratio check ok: {ratio}x multi/single throughput")
    if payload["errors"]:
        failures.append(f"FAIL: {payload['errors']} request errors")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="server worker processes")
    parser.add_argument("--topology", default="direct",
                        choices=("direct", "tcp"),
                        help="how clients reach workers: direct per-worker "
                        "unix sockets or a shared SO_REUSEPORT TCP port")
    parser.add_argument("--clients", type=int, default=80,
                        help="concurrent client connections "
                        "(open-loop phase)")
    parser.add_argument("--closed-clients", type=int, default=8,
                        help="connections the closed-loop phase drives "
                        "(bounds in-flight = closed-clients x pipeline; "
                        "0 means all --clients)")
    parser.add_argument("--client-procs", type=int, default=4,
                        help="client processes the connections spread over")
    parser.add_argument("--pipeline", type=int, default=6,
                        help="in-flight requests per connection "
                        "(closed-loop phase)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="measurement window per phase in seconds")
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop offered rate in req/s "
                        "(default: 30%% of the closed-loop throughput)")
    parser.add_argument("--deadline-ms", type=float, default=10.0,
                        help="per-request deadline for the open-loop phase")
    parser.add_argument("--predictor", default="DEP+BURST")
    parser.add_argument("--epochs", type=int, default=8,
                        help="epochs per predict request")
    parser.add_argument("--unique", type=int, default=64,
                        help="distinct predict payloads in the replay mix")
    parser.add_argument("--cache-mem", type=int, default=4096,
                        help="per-worker prediction-cache LRU entries "
                        "(0 disables caching)")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output JSON path")
    parser.add_argument("--min-rps", type=float, default=None,
                        help="fail if requests/sec falls below this")
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="fail if closed-loop p99 exceeds this")
    parser.add_argument("--max-miss-rate", type=float, default=None,
                        help="fail if the open-loop deadline-miss rate "
                        "exceeds this fraction")
    parser.add_argument("--compare-single", action="store_true",
                        help="also run the load at --workers 1 and report "
                        "the throughput ratio")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="fail if multi/single throughput ratio is "
                        "below this (needs --compare-single)")
    args = parser.parse_args(argv)

    payload = run_bench(args)
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    open_loop = payload["open_loop"]
    print(
        f"serve bench [{payload['config']['workers']} workers, "
        f"{payload['config']['topology']}]: "
        f"{payload['requests']} requests in {payload['elapsed_s']}s -> "
        f"{payload['req_per_s']} req/s, "
        f"p50 {payload['latency_ms']['p50']}ms, "
        f"p99 {payload['latency_ms']['p99']}ms, "
        f"p99.9 {payload['latency_ms']['p999']}ms, "
        f"cache hit rate {payload['cache']['hit_rate']:.1%}, "
        f"load skew {payload['load_skew']}"
    )
    print(
        f"open loop: offered {open_loop['offered_rps']} req/s, "
        f"achieved {open_loop['achieved_rps']} req/s, "
        f"p99 {open_loop['latency_ms']['p99']}ms, "
        f"jitter (p99-p50) {open_loop['latency_ms']['jitter_p99_p50']}ms, "
        f"miss rate {open_loop['deadline_miss_rate']:.2%} "
        f"@ {open_loop['deadline_ms']}ms deadline"
    )
    if "throughput_ratio" in payload:
        print(
            f"single-worker reference: "
            f"{payload['single_worker']['req_per_s']} req/s "
            f"(ratio {payload['throughput_ratio']}x)"
        )
    print(f"wrote {out}")
    return check_gates(payload, args)


if __name__ == "__main__":
    raise SystemExit(main())
