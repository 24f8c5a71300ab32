"""Regenerate the pinned output references in ``perfbench/reference``.

Usage, from the repository root::

    python3 perfbench/make_reference.py paper
    python3 perfbench/make_reference.py fleet --seeds 0 200

A reference records what the program outputs at the benchmark's pinned
sizes; regenerate it only when a change is meant to alter outputs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from benchkit import fleet, paper  # noqa: E402


def _write(name: str, payload) -> None:
    path = HERE / "reference" / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def make_paper() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as cache_dir:
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        spec = {"kind": "paper", "trace": 0, "cache_dir": cache_dir}
        line = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()[-1]
    _write("paper.json", paper.reference_of(json.loads(line)["outputs"]))


def make_fleet(first: int, last: int) -> None:
    import repro.fleet as rf

    records = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as cache_dir:
        for seed in range(first, last):
            config = rf.FleetConfig(
                tenants=fleet.TENANTS, seed=fleet.fleet_seed(seed),
                policy=fleet.POLICY,
            )
            tenants = rf.draw_tenants(
                rf.builtin_templates(), config.tenants, config.seed
            )
            cold = rf.ProfileStore(cache=rf.ProfileCache(cache_dir)).build(tenants)
            report = rf.run_fleet(
                config, store=rf.ProfileStore(cache=rf.ProfileCache(cache_dir))
            )
            summary = fleet.summarize(report, cold["profiles_built"])
            # A warm directory builds nothing; the distinct-shape count
            # comes from the tenants themselves.
            summary["cold_built"] = summary["warm_hits"]
            problems = fleet.check(summary, None)
            if problems:
                raise SystemExit(f"seed {seed}: {problems}")
            records[str(seed)] = fleet.reference_of(summary)
            print(f"seed {seed} done", flush=True)
    _write("fleet.json", {
        "tenants": fleet.TENANTS, "policy": fleet.POLICY, "seeds": records,
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("which", choices=("paper", "fleet"))
    parser.add_argument("--seeds", nargs=2, type=int, default=(0, 200),
                        metavar=("FIRST", "END"))
    args = parser.parse_args()
    if args.which == "paper":
        make_paper()
    else:
        make_fleet(*args.seeds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
