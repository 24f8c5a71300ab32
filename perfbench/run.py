"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads are described in ``perfbench/BENCHMARK.md``. A run repeats
the workload's rep until ``--seconds`` have passed (and at least a
minimum number of reps ran), checks every output, and prints one line
per metric followed, as its last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced reps and reports the per-layer metrics. The exit
code is 1 if any output check or the layer-wiring guard failed, 2 if
the program is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchkit import calib, fleet, layers, paper, stats  # noqa: E402

WORKLOADS = ("paper-cold", "paper-warm", "fleet", "serve")
#: Fewest reps a run makes, whatever ``--seconds`` says.
MIN_REPS = {"paper-cold": 3, "paper-warm": 5, "fleet": 4, "serve": 5}
#: Fewest reps of a ``--trace 1`` run: three untraced, three traced, so
#: each median drops a slow first rep.
MIN_TRACE_REPS = 6
WORKER_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Run:
    """State of one benchmark run in a checkout rooted at ``root``."""

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.workload = args.workload
        self.tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = self.tmp / f"d{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def count(self, attempted: int, problems: List[str], failed: int = -1) -> None:
        """Add ``attempted`` operations; ``failed`` defaults to one per problem."""
        failed = len(problems) if failed < 0 else failed
        self.attempted += attempted
        self.failed += min(attempted, failed)
        self.problems.extend(problems)

    def worker(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Run one rep in a fresh interpreter; add its set-up time."""
        env = dict(os.environ, PYTHONPATH="src", REPRO_CACHE_DIR=str(self.tmp / "home-cache"))
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}"
            )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - spawned + out.get("fill_s", 0.0)
        return out


# ----------------------------------------------------------------------
# Workloads: each returns a rep function rep(traced) -> dict
# ----------------------------------------------------------------------


def _paper(run: Run, cold: bool) -> Callable[[bool], Dict[str, Any]]:
    reference = json.loads((HERE / "reference" / "paper.json").read_text())
    attempted = len(reference["results"]) + 3

    def check(out: Dict[str, Any], is_cold: bool) -> None:
        run.count(attempted, paper.check(out["outputs"], reference, is_cold))

    warm_dir = None
    if not cold:
        # Fill the result cache once; the fill is checked, not timed.
        warm_dir = run.fresh_dir()
        check(run.worker({"kind": "paper", "trace": 0, "cache_dir": warm_dir}), True)

    def rep(traced: bool) -> Dict[str, Any]:
        cache_dir = run.fresh_dir() if cold else warm_dir
        out = run.worker({"kind": "paper", "trace": int(traced), "cache_dir": cache_dir})
        check(out, cold)
        return out

    return rep


def _fleet(run: Run) -> Callable[[bool], Dict[str, Any]]:
    seeds = json.loads((HERE / "reference" / "fleet.json").read_text())["seeds"]
    reference = seeds.get(str(run.args.seed))
    if reference is None:
        print(f"# seed {run.args.seed} has no fleet reference: invariants only")

    def rep(traced: bool) -> Dict[str, Any]:
        out = run.worker({
            "kind": "fleet", "trace": int(traced), "seed": run.args.seed,
            "cache_dir": run.fresh_dir(),
        })
        run.count(fleet.TENANTS, fleet.check(out["outputs"], reference))
        return out

    return rep


def _serve(run: Run) -> Callable[[bool], Dict[str, Any]]:
    sys.path.insert(0, str(run.root / "src"))
    from benchkit import serve

    inputs = serve.build_inputs(run.args.seed)

    def rep(traced: bool) -> Dict[str, Any]:
        out = serve.run_rep(inputs, str(run.root), run.fresh_dir(), traced)
        problems = [f"serve: {out['failed']} failed request(s)"] if out["failed"] else []
        if out["govern_error"]:
            problems.append(f"govern loop: {out['govern_error']}")
        run.count(out["attempted"], problems, failed=out["failed"])
        return out

    return rep


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over reps; times in reference seconds (``benchkit.calib``)."""
    return {
        "wall_s": statistics.median(calib.to_reference(r["wall_s"], r["loop_s"]) for r in reps),
        "setup_s": statistics.median(calib.to_reference(r["setup_s"], r["loop_s"]) for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(run: Run, plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    values: Dict[str, float] = {name: 0.0 for name, *_ in layers.PER_LAYER}
    values["host.wall_s"] = statistics.median(r["wall_s"] for r in plain)
    values["host.setup_s"] = statistics.median(r["setup_s"] for r in plain)
    values["host.loop_ms"] = 1e3 * statistics.median(r["loop_s"] for r in plain)
    rows: List[Dict[str, float]] = []
    for out in traced:
        if run.workload == "serve":
            row = dict(out["layers"])
            served = (row.pop("predict_requests"), row.pop("govern_requests"))
            run.count(1, [] if all(served) else [
                f"wiring guard: serve recorded {served} predict/govern requests"
            ])
        else:
            missing = layers.guard(run.workload, out["layers"])
            run.count(1, [f"wiring guard: no spans for {name}" for name in missing])
            row = layers.layer_metrics(out["layers"], out.get("counters", {}))
        rows.append(row)
    for name in rows[0]:
        values[name] = statistics.median(row[name] for row in rows)
    everything = plain + traced
    if run.workload.startswith("paper"):
        values["pred_err_up_pct"] = everything[0]["outputs"]["pred_err_up_pct"]
        values["pred_err_down_pct"] = everything[0]["outputs"]["pred_err_down_pct"]
    if run.workload == "fleet":
        values["fleet.peak_concurrency"] = float(
            everything[0]["outputs"]["aggregate"]["peak_concurrency"]
        )
        values["fleet.profiles_built"] = float(everything[0]["outputs"]["cold_built"])
    if run.workload == "serve":
        opened = [x for r in everything for x in r["open_latencies"]]
        steps = [x for r in everything for x in r["step_latencies"]]
        late = [x for r in everything for x in r["late"]]
        tail = stats.reported_percentile(len(opened))
        values.update({
            "pred_err_up_pct": everything[0]["pred_err_up_pct"],
            "pred_err_down_pct": everything[0]["pred_err_down_pct"],
            "predict_rps": statistics.median(r["predict_rps"] for r in everything),
            "predict_p50_ms": 1e3 * numpy.percentile(opened, 50),
            "predict_p99_ms": 1e3 * numpy.percentile(opened, tail),
            "step_p50_ms": 1e3 * numpy.percentile(steps, 50),
            "step_p99_ms": 1e3 * numpy.percentile(
                steps, stats.reported_percentile(len(steps))
            ),
            "loadgen.late_p99_ms": 1e3 * numpy.percentile(
                late, stats.reported_percentile(len(late))
            ),
            "loadgen.sent": float(statistics.median(len(r["late"]) for r in everything)),
            "loadgen.capacity_rps": statistics.median(r["capacity_rps"] for r in everything),
            "loadgen.offered_load": statistics.median(r["offered_load"] for r in everything),
        })
    values["fail_rate"] = stats.fail_rate(run.attempted, run.failed)
    values["trace_overhead_pct"] = 100.0 * (
        end_to_end(traced)["wall_s"] / end_to_end(plain)["wall_s"] - 1.0
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root}/src/repro is missing", file=sys.stderr)
        return 2

    run = Run(root, args)
    started = time.monotonic()
    try:
        if args.workload == "serve":
            rep = _serve(run)
        elif args.workload == "fleet":
            rep = _fleet(run)
        else:
            rep = _paper(run, cold=args.workload == "paper-cold")
        plain: List[Dict] = []
        traced: List[Dict] = []
        min_reps = MIN_TRACE_REPS if args.trace else MIN_REPS[args.workload]
        # Trace runs alternate untraced and traced reps in fresh processes.
        while len(plain) + len(traced) < min_reps or (
            time.monotonic() - started < args.seconds
        ):
            if args.trace and len(plain) > len(traced):
                traced.append(rep(True))
            else:
                plain.append(rep(False))
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            run.tmp.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(run, plain, traced)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
    reps = len(plain) + len(traced)
    print(f"# {args.workload} seed={args.seed}: {reps} rep(s), "
          f"{len(traced)} traced, {time.monotonic() - started:.1f}s")
    for key in ("wall_s", "cpu_s", "setup_s", "loop_s"):
        print(f"# {key} per rep: " + " ".join(f"{r[key]:.4f}" for r in plain + traced))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for problem in run.problems[:20]:
        print(f"# FAILED CHECK: {problem}")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
