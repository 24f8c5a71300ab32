"""Test-only oracle: the fleet engine's original tail reallocation.

``_tail_reallocate`` and the ``_Running`` state it reads are copied
verbatim from ``repro.fleet.engine`` as they were before the engine
precomputed sort keys, per-profile power tables and the cheapest-raise
skip. The optimized function must leave every running tenant on the same
candidate as this one; ``test_tail_reallocate.py`` checks that.
"""

from typing import Dict, Sequence

from repro.fleet.engine import _CAP_REL_EPS


class _Running:
    """Mutable state of one admitted tenant."""

    __slots__ = ("seq", "cands", "cand", "work", "energy_j", "start_ns")

    def __init__(self, seq: int, cands, start_ns: float) -> None:
        self.seq = seq
        self.cands = cands
        self.cand = 0
        self.work = 1.0  # fraction of the run remaining
        self.energy_j = 0.0
        self.start_ns = start_ns

    def power_w(self) -> float:
        return self.cands[self.cand].power_w

    def floor_power_w(self) -> float:
        return self.cands[0].power_w

    def completion_ns(self, at_ns: float) -> float:
        return at_ns + self.work * self.cands[self.cand].duration_ns


def _tail_reallocate(
    running: Dict[int, _Running],
    cap_w: float,
    now_ns: float,
    arrivals_ns: Sequence[float],
    baselines: Sequence[float],
) -> None:
    """The tail-aware assignment: floor everyone, then spend the budget
    on the worst projected whole-run slowdown first."""
    power = 0.0
    for run in running.values():
        run.cand = 0
        power += run.floor_power_w()
    order = sorted(
        running.values(),
        key=lambda run: (
            -(
                (run.completion_ns(now_ns) - arrivals_ns[run.seq])
                / baselines[run.seq]
                - 1.0
            ),
            run.seq,
        ),
    )
    cap = cap_w * (1.0 + _CAP_REL_EPS)
    for run in order:
        for j in range(len(run.cands) - 1, run.cand, -1):
            headroom = power - run.cands[run.cand].power_w + run.cands[j].power_w
            if headroom <= cap:
                power = headroom
                run.cand = j
                break
