"""Fleet build benchmark: naive vs batched vs warm store.

Usage::

    PYTHONPATH=src python tools/bench_fleet.py                   # full scale
    PYTHONPATH=src python tools/bench_fleet.py --tenants 96 --reps 1
    python tools/bench_fleet.py --check BENCH_fleet.json         # CI gate

Times one drawn fleet's profile build through every strategy the engine
offers (see ``repro.fleet.fleet_bench``): the naive per-tenant loop, the
deduplicated serial batch publishing into the persistent profile store,
and a warm rebuild from that store. Every store then drives one full
engine run and the reports must be byte-identical on the determinism
view; the run aborts otherwise, so every speedup is pure mechanics.

``BENCH_fleet.json`` commits the result, with cold and warm wall times
recorded separately (``cold_run_s``/``warm_run_s``) and min/median/mean
stats for every phase including the engine. With ``--check BASELINE``
a fresh run is gated two ways:

* ``cold_speedup`` (naive -> serial batched cold build) must clear the
  3x absolute floor;
* ``warm_speedup`` (serial cold build -> warm store rebuild) must
  clear the 5x absolute floor;

and each is additionally compared against the committed baseline:
dropping below 70% of baseline is a warning while still above the
floor, a failure otherwise (machines differ; the floors are the
contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet.fleet_bench import fleet_bench  # noqa: E402

#: CI fails when a gated speedup drops below this fraction of baseline...
REGRESSION_FLOOR = 0.70
#: ...or below its absolute floor.
COLD_ABSOLUTE_FLOOR = 3.0
WARM_ABSOLUTE_FLOOR = 5.0


def _gate(name: str, value: float, baseline: float, floor: float) -> bool:
    """Print one gate's verdict; True when it passes."""
    ratio = value / baseline if baseline else float("inf")
    print(
        f"{name} {value:.2f}x vs baseline {baseline:.2f}x = {ratio:.2f} "
        f"(ratio floor {REGRESSION_FLOOR:.2f}, absolute floor {floor:.1f}x)"
    )
    if value < floor:
        print(f"FAIL: {name} below the {floor:.1f}x absolute floor")
        return False
    if ratio < REGRESSION_FLOOR:
        print(f"warning: {name} more than 30% below baseline "
              "(still above the absolute floor)")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=512,
                        help="fleet size to draw (default 512)")
    parser.add_argument("--seed", type=int, default=7,
                        help="tenant-draw seed (default 7)")
    parser.add_argument("--reps", type=int, default=1,
                        help="repetitions per build phase (default 1; the "
                             "gated speedups use the medians)")
    parser.add_argument("--out", default="BENCH_fleet.json",
                        help="output JSON path")
    parser.add_argument(
        "--check", metavar="BASELINE_JSON", default=None,
        help="gate cold_speedup/warm_speedup against their absolute "
             "floors and a committed baseline file; exit 1 on failure",
    )
    args = parser.parse_args(argv)

    payload = fleet_bench(tenants=args.tenants, seed=args.seed, reps=args.reps)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"fleet {payload['tenants']} tenants -> {payload['profiles']} "
        f"profiles in {payload['groups']} groups: naive "
        f"{payload['naive_build_s']['median']:.3f}s -> serial "
        f"{payload['serial_build_s']['median']:.3f}s -> warm "
        f"{payload['warm_build_s']['median']:.3f}s"
    )
    print(
        f"cold_speedup {payload['cold_speedup']:.2f}x, warm_speedup "
        f"{payload['warm_speedup']:.2f}x (engine "
        f"{payload['engine_s']['median']:.3f}s, cold run "
        f"{payload['cold_run_s']:.3f}s, warm run "
        f"{payload['warm_run_s']:.3f}s, reports identical)"
    )
    print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        ok = _gate(
            "cold_speedup", payload["cold_speedup"],
            baseline["cold_speedup"], COLD_ABSOLUTE_FLOOR,
        )
        ok = _gate(
            "warm_speedup", payload["warm_speedup"],
            baseline["warm_speedup"], WARM_ABSOLUTE_FLOOR,
        ) and ok
        if not ok:
            return 1
        print("ok: both speedups above their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
