"""Just-in-time compilation service thread model.

The paper eliminates JIT nondeterminism with replay compilation and measures
the second (steady-state) invocation, so the measured runs contain no
compiler activity (Section IV). The JIT model here exists for completeness —
a downstream user simulating a first invocation can enable it — and is off
by default in the experiment suite, matching the paper's methodology.

When enabled, the JIT thread alternates timed sleeps (waiting for hot-method
notifications) with compilation bursts: optimizer compute plus some
code-installation memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.rng import rng_stream
from repro.common.validation import check_positive
from repro.arch.dram import ChainSampler, DramConfig
from repro.arch.segments import ComputeSegment
from repro.workloads.items import Action, Run, Sleep
from repro.workloads.program import ThreadProgram


@dataclass(frozen=True)
class JitConfig:
    """Knobs of the JIT service thread model."""

    enabled: bool = False
    n_compilations: int = 10
    insns_per_compilation: int = 1_500_000
    cpi: float = 0.7
    #: Mean sleep between compilations (hot-method detection latency).
    interval_ns: float = 4.0e6
    #: LLC-miss clusters per compilation (code/profile data misses).
    clusters_per_compilation: int = 40

    def __post_init__(self) -> None:
        check_positive("n_compilations", self.n_compilations)
        check_positive("insns_per_compilation", self.insns_per_compilation)
        check_positive("interval_ns", self.interval_ns)


def build_jit_program(
    config: JitConfig, dram: DramConfig, seed: int
) -> Optional[ThreadProgram]:
    """The JIT thread's action list, or None when the JIT is disabled."""
    if not config.enabled:
        return None
    rng = rng_stream(seed, "jit")
    chains = ChainSampler(rng, dram, 0.4, Run)
    actions: List[Action] = []
    for _ in range(config.n_compilations):
        sleep_ns = config.interval_ns * (0.5 + rng.random())
        actions.append(Sleep(duration_ns=sleep_ns))
        chains.draw(config.clusters_per_compilation)
        insns = max(10_000, int(config.insns_per_compilation * (0.6 + 0.8 * rng.random())))
        chains.place(actions, insns, config.cpi)
        actions.append(Run(ComputeSegment(insns=insns // 4, cpi=config.cpi)))
    chains.flush()
    return ThreadProgram(name="jit-compiler", actions=tuple(actions))
