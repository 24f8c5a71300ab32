"""JVM runtime coordinator: allocation, GC triggering, cycle planning.

:class:`JvmRuntime` owns the heap state and decides *what* managed-runtime
work happens; the simulator (:mod:`repro.sim.system`) decides *when*. The
protocol between them:

1. An application thread executes ``Allocate(n)``. The simulator calls
   :meth:`JvmRuntime.try_allocate`; if the nursery has room, it gets back
   the zero-initialization segments to run. Otherwise a collection is due.
2. The simulator parks application threads at the GC rendezvous (a futex),
   then calls :meth:`plan_gc` to obtain per-worker action lists, runs the
   GC threads, and finally calls :meth:`finish_gc` to commit the heap
   transition before waking the application.

All quantities (survivor counts, traced/copied bytes) derive from the
logical allocation stream plus deterministic per-cycle jitter, so the GC
schedule is identical at every simulated frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.rng import rng_stream
from repro.arch.dram import DramConfig
from repro.arch.segments import Segment
from repro.jvm.allocator import ZeroInitAllocator
from repro.jvm.gc import GcConfig, GcModel
from repro.jvm.heap import HeapState
from repro.jvm.jit import JitConfig
from repro.workloads.items import Action
from repro.workloads.program import Program


@dataclass(frozen=True)
class JvmConfig:
    """Configuration of the managed runtime."""

    gc: GcConfig = field(default_factory=GcConfig)
    jit: JitConfig = field(default_factory=JitConfig)
    #: Zeroing chunk granularity for allocation store bursts.
    zero_chunk_bytes: int = 4096
    alloc_path_insns: int = 60
    init_insns_per_chunk: int = 180
    alloc_cpi: float = 0.6
    #: Lognormal-ish jitter applied to the program's survival rate per cycle.
    survival_jitter: float = 0.25
    #: Mature occupancy fraction that escalates the next GC to a full GC.
    full_gc_threshold: float = 0.8
    #: Fraction of the mature space still live at a full GC.
    mature_live_fraction: float = 0.35


@dataclass
class GcPlan:
    """A planned (not yet committed) collection cycle."""

    kind: str  # "minor" | "full"
    index: int
    traced_bytes: int
    copied_bytes: int
    #: Heap transition to commit on finish: survivors for minor GCs,
    #: resulting mature occupancy for full GCs.
    commit_value: int
    worker_actions: List[List[Action]]


class JvmRuntime:
    """Heap + collector + allocator state machine for one program run."""

    def __init__(
        self,
        program: Program,
        dram: DramConfig,
        config: Optional[JvmConfig] = None,
        gc_model: Optional[GcModel] = None,
    ) -> None:
        self.program = program
        self.config = config or JvmConfig()
        self.heap = HeapState(
            heap_bytes=program.heap_bytes,
            nursery_bytes=program.nursery_bytes,
            full_gc_threshold=self.config.full_gc_threshold,
        )
        self.allocator = ZeroInitAllocator(
            dram,
            chunk_bytes=self.config.zero_chunk_bytes,
            alloc_path_insns=self.config.alloc_path_insns,
            init_insns_per_chunk=self.config.init_insns_per_chunk,
            cpi=self.config.alloc_cpi,
        )
        #: Runs handed the same GcModel (a runner's bundle, a batch
        #: group) share its per-cycle program cache: cycles are
        #: frequency-independent. Without one, this run builds its own.
        self.gc_model = gc_model or GcModel(self.config.gc, dram, program.seed)
        self._pending_plan: Optional[GcPlan] = None
        self._gc_index = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def try_allocate(self, n_bytes: int) -> Optional[List[Segment]]:
        """Attempt a nursery allocation.

        Returns the zero-initialization segments on success, or None when a
        collection must run first (heap state is untouched in that case).
        Oversized requests (> nursery) are satisfied in nursery-sized
        slabs by the caller retrying; we reject them loudly instead of
        silently corrupting accounting.
        """
        if n_bytes > self.heap.nursery_bytes:
            raise SimulationError(
                f"allocation of {n_bytes} B exceeds the nursery "
                f"({self.heap.nursery_bytes} B); split it in the workload"
            )
        if not self.heap.fits(n_bytes):
            return None
        self.heap.allocate(n_bytes)
        return self.allocator.segments_for(n_bytes)

    # ------------------------------------------------------------------
    # Collection cycles
    # ------------------------------------------------------------------

    @property
    def n_gc_threads(self) -> int:
        """Number of parallel collector threads."""
        return self.config.gc.n_gc_threads

    @property
    def gc_in_progress(self) -> bool:
        """True while a planned cycle has not been finished."""
        return self._pending_plan is not None

    def plan_gc(self) -> GcPlan:
        """Plan the next collection cycle and build its worker programs."""
        if self._pending_plan is not None:
            raise SimulationError("a GC cycle is already in progress")
        cfg = self.config
        index = self._gc_index
        rng = rng_stream(self.program.seed, "survival", index)
        jitter = float(
            min(2.0, max(0.25, rng.lognormal(mean=0.0, sigma=cfg.survival_jitter)))
        )
        survival = min(1.0, self.program.survival_rate * jitter)
        if self.heap.needs_full_gc():
            live_after = self.heap.plan_full(survival, cfg.mature_live_fraction)
            # Tracing visits live objects only; dead space is swept cheaply.
            traced = max(1024, int(live_after * cfg.gc.trace_expansion))
            copied = int(live_after * cfg.gc.full_compact_fraction)
            plan = GcPlan(
                kind="full",
                index=index,
                traced_bytes=traced,
                copied_bytes=copied,
                commit_value=live_after,
                worker_actions=self.gc_model.build_cycle(index, traced, copied),
            )
        else:
            survivors = self.heap.plan_minor(survival)
            traced = max(1024, int(survivors * cfg.gc.trace_expansion))
            copied = survivors
            plan = GcPlan(
                kind="minor",
                index=index,
                traced_bytes=traced,
                copied_bytes=copied,
                commit_value=survivors,
                worker_actions=self.gc_model.build_cycle(index, traced, copied),
            )
        self._pending_plan = plan
        self._gc_index += 1
        return plan

    def finish_gc(self, plan: GcPlan) -> None:
        """Commit the heap transition of a completed cycle."""
        if self._pending_plan is not plan:
            raise SimulationError("finishing a GC cycle that was not planned")
        if plan.kind == "minor":
            self.heap.commit_minor(plan.commit_value)
        else:
            self.heap.commit_full(plan.commit_value)
        self._pending_plan = None
