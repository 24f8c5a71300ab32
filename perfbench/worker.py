"""One benchmark rep in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH``. Prints one JSON line: the rep's timings and outputs,
its peak RSS, and ``ready``, the monotonic clock when its imports were
done — the parent measures set-up from its own clock at spawn.
"""

import json
import os
import resource
import sys

from benchkit import calib


def main() -> int:
    # Stay on one CPU, so the calibration loop times the CPU the job runs on.
    os.sched_setaffinity(0, {calib.current_cpu()})
    spec = json.loads(sys.argv[1])
    if spec["kind"] == "paper":
        from benchkit import paper as module
    elif spec["kind"] == "fleet":
        from benchkit import fleet as module
    else:
        raise SystemExit(f"unknown rep kind {spec['kind']!r}")
    out = module.run_rep(spec)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
