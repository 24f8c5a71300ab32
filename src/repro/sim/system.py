"""Full-system discrete-event simulator.

:class:`System` executes a :class:`~repro.workloads.program.Program` on the
modeled machine: application threads run their action lists on cores, the
managed runtime injects zero-initialization bursts and stop-the-world
collections, and every sleep/wake flows through the futex table, producing
the trace the predictors consume.

Event protocol
--------------
Three future-event kinds live in the queue:

* ``("seg", tid, token)`` — a thread's in-flight segment *plan* completes;
* ``("timer", tid, token)`` — a timed sleep expires;
* ``("quantum",)`` — a scheduling-quantum boundary (interval close, DVFS
  governor invocation).

Tokens invalidate stale completions after a mid-flight DVFS rescale or a
plan truncation; the queue's live-token index drops them during the pop.

Merged plans (the fast engine)
------------------------------
Consecutive segments of one thread are timed in a single vectorized batch
and scheduled as ONE completion event at the end of the run ("plan").
Per-segment boundaries are preserved exactly — boundary times are the same
sequential ``t = t + wall`` sums the per-segment engine produced, counters
commit one segment at a time in the same order (lazily, on first
observation past a boundary), and the in-flight segment is interpolated
with the unchanged formula — so traces are bit-identical. Every situation
where the per-segment engine would have re-examined a boundary cuts a plan
short:

* plan formation stops at the first boundary that crosses the round-robin
  timeslice (where ``should_preempt`` could fire);
* raising the GC-pending flag truncates every application plan after its
  current segment (threads park at the next segment boundary);
* a DVFS transition truncates plans to the current segment and re-anchors
  it at the new frequency (untimed leftovers return to the pending deque).

``engine="classic"`` caps plans at one segment, reproducing the
pre-merged engine event for event — the differential-test oracle.

Stop-the-world protocol
-----------------------
When an allocation does not fit the nursery, the runtime raises the GC
pending flag. Application threads park at the GC-rendezvous futex at their
next action boundary (threads already asleep on a lock/barrier count as
parked). Once every application thread is parked, the collector workers are
woken with the planned cycle's action lists; when all workers drain their
work and re-park on the GC-idle futex, the heap transition commits and the
application wakes.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.arch.core import CoreModel
from repro.arch.counters import CounterSet
from repro.arch.frequency import DvfsDomain
from repro.arch.segments import SegmentBatch
from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.jvm.gc import GcModel
from repro.jvm.jit import build_jit_program
from repro.jvm.runtime import GcPlan, JvmConfig, JvmRuntime
from repro.osmodel.futex import FutexTable
from repro.osmodel.locks import BarrierState, MutexState
from repro.osmodel.scheduler import Dispatch, Scheduler
from repro.osmodel.threadmodel import SimThread, ThreadKind, ThreadState
from repro.sim.engine import EventQueue
from repro.sim.intervals import IntervalRecord
from repro.sim.trace import EventKind, SimulationTrace, ThreadInfo, TraceBuilder
from repro.workloads.items import (
    Acquire,
    Action,
    Allocate,
    BarrierWait,
    Release,
    Run,
    Sleep,
)
from repro.workloads.program import Program

# Futex key namespaces.
_KEY_MUTEX_BASE = 0
_KEY_BARRIER_BASE = 1 << 24
_KEY_GC_IDLE = 1 << 28
_KEY_GC_RENDEZVOUS = (1 << 28) + 1
_KEY_TIMER_BASE = 1 << 29

#: Hard cap on processed events — a loud failure beats a silent hang.
_MAX_EVENTS = 50_000_000

#: Governor signature: (interval record, trace so far) -> target frequency
#: in GHz (or None to keep the current one).
Governor = Callable[[IntervalRecord, SimulationTrace], Optional[float]]


class System:
    """One simulated machine executing one program."""

    def __init__(
        self,
        program: Program,
        spec: Optional[MachineSpec] = None,
        jvm_config: Optional[JvmConfig] = None,
        governor: Optional[Governor] = None,
        freq_ghz: Optional[float] = None,
        quantum_ns: float = 5.0e6,
        timeslice_ns: float = 1.0e6,
        gc_model: Optional[GcModel] = None,
        per_core_dvfs: bool = False,
        engine: str = "fast",
        timing_store: Optional["SharedTimingStore"] = None,
    ) -> None:
        if engine not in ("fast", "classic"):
            raise SimulationError(f"unknown engine {engine!r}")
        self.engine = engine
        #: Max segments merged into one completion event. ``classic`` pins
        #: it to 1, reproducing the per-segment engine exactly.
        self._plan_limit = 256 if engine == "fast" else 1
        self.spec = spec or haswell_i7_4770k()
        self.program = program
        self.core_model = CoreModel(self.spec)
        self.dvfs = DvfsDomain(self.spec, freq_ghz, per_core=per_core_dvfs)
        self.scheduler = Scheduler(self.spec.n_cores, timeslice_ns)
        self.futex = FutexTable()
        self.runtime = JvmRuntime(
            program, self.spec.dram, jvm_config, gc_model=gc_model
        )
        self.governor = governor
        self.quantum_ns = quantum_ns
        self.trace = SimulationTrace(
            program_name=program.name, base_freq_ghz=self.dvfs.current_freq_ghz
        )
        self._builder = TraceBuilder(self.trace)
        self._queue = EventQueue()
        self._mutexes: Dict[int, MutexState] = {}
        self._barriers: Dict[int, BarrierState] = {}
        self._threads: Dict[int, SimThread] = {}
        self._pending_segments: Dict[int, deque] = {}
        self._gc_work: Dict[int, deque] = {}
        self._pushback: Dict[int, Optional[Action]] = {}
        self._alloc_retries: Dict[int, int] = {}
        self._tokens: Dict[int, int] = {}
        #: freq -> {id(segment): (segment, wall_ns, counters)}. Programs and
        #: the allocator reuse frozen segment instances heavily; timing is a
        #: pure function of (segment, frequency), so results are shared. The
        #: value keeps a strong reference to the segment, which pins its id.
        #: A batched run (repro.sim.batch) passes a SharedTimingStore so
        #: lanes simulating the same (program, spec) share these dicts.
        self._timing_cache: Dict[float, Dict[int, Tuple]] = (
            timing_store.caches if timing_store is not None else {}
        )
        #: Every Run segment of the pre-materialized thread programs; used
        #: to pre-time the whole program in one vectorized batch per
        #: frequency instead of one scalar call per (mostly unique) segment.
        self._static_segments: List = []
        #: Ids of the current GC cycle's Run segments, whose timings are
        #: evicted when the cycle ends (cycle segments never recur).
        self._gc_segment_ids: List[int] = []
        #: Threads with an in-flight segment plan, in plan-start order.
        self._plans_inflight: Dict[int, SimThread] = {}
        #: Diagnostics for the benchmark harness.
        self.events_handled = 0
        self.segments_timed = 0
        self._app_alive = 0
        self._gc_pending = False
        self._gc_active = False
        self._gc_plan: Optional[GcPlan] = None
        self._gc_start_ns = 0.0
        self._gc_idle_workers = 0
        self._interval_index = 0
        self._interval_start_ns = 0.0
        self._interval_event_lo = 0
        self._interval_snapshot: Dict[int, CounterSet] = {}
        self._pending_transition_ns = 0.0
        self._finished = False
        self._build_threads()

    # ==================================================================
    # Construction
    # ==================================================================

    def _build_threads(self) -> None:
        tid = 0
        static_segments = self._static_segments
        for thread_prog in self.program.threads:
            self._threads[tid] = SimThread(
                tid=tid,
                name=thread_prog.name,
                kind=ThreadKind.APPLICATION,
                program=iter(thread_prog.actions),
                state=ThreadState.RUNNABLE,
            )
            for action in thread_prog.actions:
                if isinstance(action, Run):
                    static_segments.append(action.segment)
            tid += 1
        for worker in range(self.runtime.n_gc_threads):
            self._threads[tid] = SimThread(
                tid=tid,
                name=f"gc-worker-{worker}",
                kind=ThreadKind.GC,
                program=iter(()),
                state=ThreadState.BLOCKED,
            )
            self._gc_work[tid] = deque()
            tid += 1
        jit_prog = build_jit_program(
            self.runtime.config.jit, self.spec.dram, self.program.seed
        )
        if jit_prog is not None:
            self._threads[tid] = SimThread(
                tid=tid,
                name=jit_prog.name,
                kind=ThreadKind.JIT,
                program=iter(jit_prog.actions),
                state=ThreadState.RUNNABLE,
            )
            for action in jit_prog.actions:
                if isinstance(action, Run):
                    static_segments.append(action.segment)
            tid += 1
        for thread in self._threads.values():
            self.trace.threads[thread.tid] = ThreadInfo(
                tid=thread.tid, name=thread.name, kind=thread.kind
            )
            self._pending_segments[thread.tid] = deque()
            self._pushback[thread.tid] = None
            self._tokens[thread.tid] = 0
        self._app_alive = sum(
            1 for t in self._threads.values() if t.kind is ThreadKind.APPLICATION
        )

    # ==================================================================
    # Public entry point
    # ==================================================================

    def run(self, max_ns: Optional[float] = None) -> SimulationTrace:
        """Simulate until every application thread finishes; return the trace."""
        if self._finished:
            raise SimulationError("a System instance is single-use; build a new one")
        self._start_threads()
        self._queue.push(self.quantum_ns, ("quantum",))
        events_handled = 0
        pop = self._queue.pop
        while self._app_alive > 0:
            item = pop()
            if item is None:
                raise SimulationError(
                    "deadlock: no pending events but "
                    f"{self._app_alive} application thread(s) alive; "
                    f"states={[(t.tid, t.state.value) for t in self._threads.values()]}"
                )
            if max_ns is not None and item[0] > max_ns:
                raise SimulationError(
                    f"simulation exceeded max_ns={max_ns} (now {item[0]})"
                )
            events_handled += 1
            if events_handled > _MAX_EVENTS:
                raise SimulationError("event cap exceeded; likely livelock")
            payload = item[2]
            kind = payload[0]
            if kind == "seg":
                self._on_segment_done(payload[1])
            elif kind == "timer":
                self._on_timer(payload[1])
            elif kind == "quantum":
                self._on_quantum()
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event payload {payload!r}")
        self.events_handled = events_handled
        self._finalize()
        return self.trace

    # ==================================================================
    # Startup / shutdown
    # ==================================================================

    def _start_threads(self) -> None:
        for thread in sorted(self._threads.values(), key=lambda t: t.tid):
            if thread.kind is ThreadKind.GC:
                # Collector workers start parked on the GC-idle futex.
                self.futex.wait(_KEY_GC_IDLE, thread.tid)
                self._gc_idle_workers += 1
                self._emit(EventKind.SPAWN, thread.tid, "gc-idle")
                continue
            self._emit(EventKind.SPAWN, thread.tid)
            dispatch = self.scheduler.make_runnable(thread.tid)
            if dispatch is not None:
                self._apply_dispatch(dispatch, emit=False)
        # Kick every dispatched thread after all spawns are logged.
        for tid in list(self.scheduler.running_tids):
            self._advance(tid)

    def _finalize(self) -> None:
        now = self._queue.now_ns
        self.trace.total_ns = now
        self._close_interval(now)
        for thread in self._threads.values():
            if thread.state is not ThreadState.FINISHED:
                thread.state = ThreadState.FINISHED
                self._emit(EventKind.EXIT, thread.tid, "teardown")
        self._finished = True

    # ==================================================================
    # Event handlers
    # ==================================================================

    def _on_segment_done(self, tid: int) -> None:
        # Stale tokens were already dropped by the queue's live-token index.
        thread = self._threads[tid]
        if thread.state is not ThreadState.RUNNING:
            return
        if thread.plan_counters is None:
            raise SimulationError(f"segment completion for idle thread {tid}")
        thread.finish_plan()
        self._plans_inflight.pop(tid, None)
        self._advance(tid)

    def _on_timer(self, tid: int) -> None:
        thread = self._threads[tid]
        if thread.state is not ThreadState.BLOCKED:
            return
        if self.futex.remove(_KEY_TIMER_BASE + tid, tid):
            self._wake_thread(tid, "timer")
            self._maybe_start_gc()

    def _on_quantum(self) -> None:
        now = self._queue.now_ns
        # Deadlock check: the quantum event keeps the queue alive forever,
        # so "nothing else pending and nobody on a core" means no thread
        # can ever make progress again (running threads always have a
        # segment completion queued, sleepers a timer).
        if not self._queue and not self.scheduler.running_tids:
            raise SimulationError(
                "deadlock: no runnable threads and no pending work; "
                f"states={[(t.tid, t.state.value) for t in self._threads.values()]}"
            )
        record = self._close_interval(now)
        self._emit(EventKind.INTERVAL, -1, f"q{record.index}")
        self._open_interval(now)
        if self.governor is not None:
            target = self.governor(record, self.trace)
            if isinstance(target, dict):
                self._change_core_frequencies(target)
            elif target is not None:
                self._change_frequency(target)
        self._queue.push(now + self.quantum_ns, ("quantum",))

    # ==================================================================
    # Thread advancement (the scheduler/JVM state machine)
    # ==================================================================

    def _advance(self, tid: int) -> None:
        """Drive ``tid`` forward until it starts a segment, blocks, or exits."""
        thread = self._threads[tid]
        while True:
            if thread.state is not ThreadState.RUNNING:
                raise SimulationError(
                    f"advancing thread {tid} in state {thread.state}"
                )
            now = self._queue.now_ns
            # Safepoint: park at the GC rendezvous at action boundaries
            # (both while a collection is pending and while one is active).
            if (
                (self._gc_pending or self._gc_active)
                and thread.kind is ThreadKind.APPLICATION
            ):
                self._block(tid, _KEY_GC_RENDEZVOUS, "gc-rendezvous")
                return
            # Round-robin preemption at segment/action boundaries.
            if self.scheduler.should_preempt(tid, now - thread.dispatched_at_ns):
                self._preempt(tid)
                return
            pending = self._pending_segments[tid]
            if pending:
                self._start_plan(thread)
                return
            # A collector worker with no work left parks on the idle futex.
            if (
                thread.kind is ThreadKind.GC
                and not self._gc_work[tid]
                and self._pushback[tid] is None
            ):
                self._park_gc_worker(tid)
                return
            action = self._next_action(thread)
            if action is None:
                self._exit_thread(tid)
                return
            if isinstance(action, Run):
                pending.append(action.segment)
                if self._plan_limit > 1:
                    self._slurp_runs(thread, pending)
                continue
            if isinstance(action, Acquire):
                mutex = self._mutex(action.lock_id)
                if mutex.acquire(tid):
                    continue
                self._block(tid, _KEY_MUTEX_BASE + action.lock_id, "lock")
                return
            if isinstance(action, Release):
                mutex = self._mutex(action.lock_id)
                next_owner = mutex.release(tid)
                if next_owner is not None:
                    woken = self.futex.wake(_KEY_MUTEX_BASE + action.lock_id)
                    if woken != [next_owner]:
                        raise SimulationError(
                            f"futex/mutex queue mismatch on lock {action.lock_id}"
                        )
                    self._wake_thread(next_owner, "lock-handoff")
                continue
            if isinstance(action, BarrierWait):
                barrier = self._barrier(action.barrier_id, action.parties)
                released = barrier.arrive(tid)
                if released is None:
                    self._block(
                        tid, _KEY_BARRIER_BASE + action.barrier_id, "barrier"
                    )
                    return
                key = _KEY_BARRIER_BASE + action.barrier_id
                woken = self.futex.wake_all(key)
                if Counter(woken) != Counter(released):
                    raise SimulationError(
                        f"futex/barrier mismatch on barrier {action.barrier_id}"
                    )
                for waiter in woken:
                    self._wake_thread(waiter, "barrier-release")
                continue
            if isinstance(action, Allocate):
                segments = self.runtime.try_allocate(action.n_bytes)
                if segments is None:
                    # Nursery full: this thread triggers a collection and
                    # retries the allocation after the world restarts. If
                    # collecting does not make room, fail loudly instead of
                    # collecting forever.
                    retries = self._alloc_retries.get(tid, 0)
                    if retries >= 3:
                        raise SimulationError(
                            f"thread {tid}: allocation of {action.n_bytes} B "
                            f"cannot be satisfied after {retries} collections "
                            "(live data leaves no headroom)"
                        )
                    self._alloc_retries[tid] = retries + 1
                    self._gc_pending = True
                    # Other application threads must park at their next
                    # segment boundary, not their (merged) plan's end.
                    self._truncate_app_plans()
                    self._pushback[tid] = action
                    self._block(tid, _KEY_GC_RENDEZVOUS, "gc-trigger")
                    return
                self._alloc_retries[tid] = 0
                pending.extend(segments)
                if self._plan_limit > 1:
                    self._slurp_runs(thread, pending)
                continue
            if isinstance(action, Sleep):
                token = self._bump_token(tid)
                self._queue.push(now + action.duration_ns, ("timer", tid, token))
                self._block(tid, _KEY_TIMER_BASE + tid, "sleep")
                return
            raise SimulationError(f"unknown action {action!r}")

    def _next_action(self, thread: SimThread) -> Optional[Action]:
        pushed = self._pushback[thread.tid]
        if pushed is not None:
            self._pushback[thread.tid] = None
            return pushed
        if thread.kind is ThreadKind.GC:
            # _advance parks workers with an empty deque before getting here.
            return self._gc_work[thread.tid].popleft()
        return next(thread.program, None)

    def _slurp_runs(self, thread: SimThread, pending: deque) -> None:
        """Prefetch consecutive ``Run`` actions so their segments can merge.

        Pulling a pre-built action list forward has no observable effect —
        every check the per-segment engine ran between two Run actions
        (safepoint, preemption, parking) still runs at the corresponding
        segment boundary, either live at the plan end or via the plan
        truncation hooks. The first non-Run action goes to the pushback
        slot and is consumed at the usual point.
        """
        tid = thread.tid
        if thread.kind is ThreadKind.GC:
            work = self._gc_work[tid]
            while work and isinstance(work[0], Run):
                pending.append(work.popleft().segment)
            return
        if self._pushback[tid] is not None:
            return
        program = thread.program
        while True:
            action = next(program, None)
            if action is None:
                return
            if isinstance(action, Run):
                pending.append(action.segment)
                continue
            self._pushback[tid] = action
            return

    # ------------------------------------------------------------------
    # Segment plans
    # ------------------------------------------------------------------

    def _bump_token(self, tid: int) -> int:
        """Invalidate ``tid``'s outstanding events; return the new token."""
        token = self._tokens[tid] + 1
        self._tokens[tid] = token
        self._queue.invalidate(tid, token)
        return token

    def _freq_cache(self, freq: float) -> Dict[int, Tuple]:
        """The timing cache for ``freq``, pre-timing the whole program on
        first touch.

        Application segments are unique instances, so per-plan caching
        never hits for them; but the programs are pre-materialized, so all
        their segments can be timed in one vectorized batch up front.
        ``time_batch_multi`` is bit-identical to ``time_segment`` by
        contract, which makes warming purely an optimization.
        """
        cache = self._timing_cache.get(freq)
        if cache is None:
            cache = self._timing_cache[freq] = {}
            self._warm_cache(cache, freq, self._static_segments)
        return cache

    def _warm_cache(self, cache: Dict[int, Tuple], freq: float, segments) -> None:
        """Batch-time the uncached ``segments`` at ``freq``.

        Duplicate instances in ``segments`` are timed redundantly rather
        than deduplicated — the second store writes the identical value.
        """
        misses = [s for s in segments if id(s) not in cache]
        if not misses:
            return
        (batch,) = self.core_model.time_batch_multi(SegmentBatch(misses), [freq])
        for segment, wall, counters in zip(misses, batch.walls, batch.counters):
            cache[id(segment)] = (segment, wall, counters)

    def _start_plan(self, thread: SimThread) -> None:
        """Time the head of the pending deque and schedule its completion.

        Merges up to ``_plan_limit`` segments into one batched plan, cut at
        the first boundary that crosses the thread's round-robin timeslice
        (the exact ``should_preempt`` arithmetic) so preemption points are
        never merged over. Boundary times are the same sequential
        ``t = t + wall`` sums the per-segment engine computed.
        """
        tid = thread.tid
        now = self._queue.now_ns
        pending = self._pending_segments[tid]
        freq = self.dvfs.frequency_of(thread.core)
        start = now + self._consume_transition()
        limit = self._plan_limit
        if limit == 1:
            segment = pending.popleft()
            timing = self.core_model.time_segment(segment, freq)
            end = start + timing.wall_ns
            thread.set_plan(
                start, [end], [timing.wall_ns], [timing.counters], [segment]
            )
            self._plans_inflight[tid] = thread
            self._queue.push(end, ("seg", tid, self._bump_token(tid)))
            self.segments_timed += 1
            return
        cache = self._freq_cache(freq)
        count = min(len(pending), limit)
        segments = [pending.popleft() for _ in range(count)]
        walls: List[float] = []
        counters: List[CounterSet] = []
        for segment in segments:
            hit = cache.get(id(segment))
            if hit is None:
                timing = self.core_model.time_segment(segment, freq)
                hit = (segment, timing.wall_ns, timing.counters)
                cache[id(segment)] = hit
            walls.append(hit[1])
            counters.append(hit[2])
        ends: List[float] = []
        t = start
        n_take = count
        if self.scheduler.is_oversubscribed():
            # Someone is waiting for a core: should_preempt can fire, so
            # the plan must end at the first boundary that crosses the
            # timeslice. With an empty run queue preemption is impossible
            # and _limit_running_plans cuts the plan if that changes.
            dispatched = thread.dispatched_at_ns
            timeslice = self.scheduler.timeslice_ns
            n_take = 0
            for wall in walls:
                t = t + wall
                ends.append(t)
                n_take += 1
                if t - dispatched >= timeslice:
                    break
        else:
            for wall in walls:
                t = t + wall
                ends.append(t)
        if n_take < count:
            pending.extendleft(reversed(segments[n_take:]))
            del segments[n_take:]
            del walls[n_take:]
            del counters[n_take:]
        thread.set_plan(start, ends, walls, counters, segments)
        self._plans_inflight[tid] = thread
        self._queue.push(ends[-1], ("seg", tid, self._bump_token(tid)))
        self.segments_timed += n_take

    def _limit_running_plans(self) -> None:
        """A thread just queued for a core: bound every in-flight plan.

        Plans formed while the run queue was empty merge freely past the
        timeslice (preemption cannot fire). Once a thread is waiting,
        ``should_preempt`` becomes live again at every segment boundary,
        so each plan must now end at its first boundary that crosses the
        owner's timeslice — the same cut plan formation applies when the
        queue is already non-empty.
        """
        now = self._queue.now_ns
        timeslice = self.scheduler.timeslice_ns
        for tid, thread in self._plans_inflight.items():
            if thread.state is not ThreadState.RUNNING or thread.plan_ends is None:
                continue
            thread.sync_plan(now)
            ends = thread.plan_ends
            last = len(ends) - 1
            k = thread.plan_index
            if k > last:
                continue
            dispatched = thread.dispatched_at_ns
            while k < last and ends[k] - dispatched < timeslice:
                k += 1
            if k >= last:
                continue  # plan already ends at/before the first eligible cut
            leftover = thread.truncate_plan(k)
            self._pending_segments[tid].extendleft(reversed(leftover))
            self._queue.push(ends[k], ("seg", tid, self._bump_token(tid)))

    def _truncate_app_plans(self) -> None:
        """GC became pending: cut application plans after their current segment.

        The per-segment engine re-checked the GC flag at every segment
        boundary, so a thread must park at the END of the segment it is in,
        not at its merged plan's end. Untimed leftovers return to the front
        of the pending deque; the replacement completion event fires at the
        current segment's original boundary time.
        """
        now = self._queue.now_ns
        for tid, thread in self._plans_inflight.items():
            if thread.kind is not ThreadKind.APPLICATION:
                continue
            if thread.state is not ThreadState.RUNNING or thread.plan_ends is None:
                continue
            thread.sync_plan(now)
            i = thread.plan_index
            if i >= len(thread.plan_ends) - 1:
                continue  # already on the last segment; its event stands
            leftover = thread.truncate_plan(i)
            self._pending_segments[tid].extendleft(reversed(leftover))
            self._queue.push(
                thread.plan_ends[i], ("seg", tid, self._bump_token(tid))
            )

    def _consume_transition(self) -> float:
        """First segment started after a DVFS switch pays the residual stall."""
        cost = self._pending_transition_ns
        self._pending_transition_ns = 0.0
        return cost

    # ------------------------------------------------------------------
    # Blocking / waking / scheduling
    # ------------------------------------------------------------------

    def _block(self, tid: int, key: int, detail: str) -> None:
        thread = self._threads[tid]
        now = self._queue.now_ns
        self.futex.wait(key, tid)
        thread.state = ThreadState.BLOCKED
        thread.blocked_since_ns = now
        dispatch = self.scheduler.remove(tid)
        self._emit(EventKind.FUTEX_WAIT, tid, detail)
        if detail in ("gc-rendezvous", "gc-trigger"):
            self._maybe_start_gc()
        if dispatch is not None:
            self._apply_dispatch(dispatch)
        if self._gc_pending and not self._gc_active:
            self._maybe_start_gc()

    def _wake_thread(self, tid: int, detail: str) -> None:
        thread = self._threads[tid]
        now = self._queue.now_ns
        if thread.state is not ThreadState.BLOCKED:
            raise SimulationError(f"waking non-blocked thread {tid}")
        if thread.blocked_since_ns is not None:
            thread.blocked_ns += now - thread.blocked_since_ns
            thread.blocked_since_ns = None
        dispatch = self.scheduler.make_runnable(tid)
        if dispatch is not None:
            thread.state = ThreadState.RUNNING
            thread.core = dispatch.core
            thread.dispatched_at_ns = now
            self._emit(EventKind.FUTEX_WAKE, tid, detail)
            self._advance(tid)
        else:
            thread.state = ThreadState.RUNNABLE
            self._limit_running_plans()
            self._emit(EventKind.FUTEX_WAKE, tid, detail + "/queued")

    def _apply_dispatch(self, dispatch: Dispatch, emit: bool = True) -> None:
        thread = self._threads[dispatch.tid]
        thread.state = ThreadState.RUNNING
        thread.core = dispatch.core
        thread.dispatched_at_ns = self._queue.now_ns
        if emit:
            self._emit(EventKind.DISPATCH, dispatch.tid)
            self._advance(dispatch.tid)

    def _preempt(self, tid: int) -> None:
        thread = self._threads[tid]
        dispatch = self.scheduler.preempt(tid)
        thread.state = ThreadState.RUNNABLE
        thread.core = None
        self._emit(EventKind.PREEMPT, tid)
        self._apply_dispatch(dispatch)

    def _exit_thread(self, tid: int) -> None:
        thread = self._threads[tid]
        thread.state = ThreadState.FINISHED
        dispatch = self.scheduler.remove(tid)
        self._emit(EventKind.EXIT, tid)
        if thread.kind is ThreadKind.APPLICATION:
            self._app_alive -= 1
        if dispatch is not None:
            self._apply_dispatch(dispatch)
        if self._gc_pending and not self._gc_active:
            self._maybe_start_gc()

    # ------------------------------------------------------------------
    # Garbage collection orchestration
    # ------------------------------------------------------------------

    def _maybe_start_gc(self) -> None:
        if not self._gc_pending or self._gc_active:
            return
        for thread in self._threads.values():
            if thread.kind is ThreadKind.APPLICATION and thread.state in (
                ThreadState.RUNNING,
                ThreadState.RUNNABLE,
            ):
                return
        plan = self.runtime.plan_gc()
        self._gc_plan = plan
        self._gc_active = True
        self._gc_start_ns = self._queue.now_ns
        self._emit(EventKind.GC_START, -1, plan.kind)
        if self._plan_limit > 1:
            # Pre-time the whole cycle in one vectorized batch at the
            # frequency the workers will (most likely) run at; plans then
            # hit the cache segment by segment. Mid-cycle frequency changes
            # fall back to the per-plan miss path.
            freq = self.dvfs.current_freq_ghz
            cycle_segments = [
                action.segment
                for actions in plan.worker_actions
                for action in actions
                if isinstance(action, Run)
            ]
            self._warm_cache(self._freq_cache(freq), freq, cycle_segments)
            self._gc_segment_ids = [id(segment) for segment in cycle_segments]
        gc_tids = sorted(self._gc_work)
        for worker_index, gc_tid in enumerate(gc_tids):
            self._gc_work[gc_tid].extend(plan.worker_actions[worker_index])
        woken = self.futex.wake_all(_KEY_GC_IDLE)
        if Counter(woken) != Counter(gc_tids):
            raise SimulationError("GC workers were not all parked at cycle start")
        self._gc_idle_workers = 0
        for gc_tid in woken:
            self._wake_thread(gc_tid, "gc-cycle-start")

    def _park_gc_worker(self, tid: int) -> None:
        """A collector worker drained its work: park it and maybe end the cycle."""
        self.futex.wait(_KEY_GC_IDLE, tid)
        thread = self._threads[tid]
        thread.state = ThreadState.BLOCKED
        thread.blocked_since_ns = self._queue.now_ns
        dispatch = self.scheduler.remove(tid)
        self._emit(EventKind.FUTEX_WAIT, tid, "gc-idle")
        self._gc_idle_workers += 1
        if dispatch is not None:
            self._apply_dispatch(dispatch)
        if self._gc_active and self._gc_idle_workers == len(self._gc_work):
            self._finish_gc()

    def _finish_gc(self) -> None:
        now = self._queue.now_ns
        plan = self._gc_plan
        if plan is None:
            raise SimulationError("finishing a GC with no plan")
        self.runtime.finish_gc(plan)
        self.trace.gc_cycles += 1
        self.trace.gc_time_ns += now - self._gc_start_ns
        self._gc_active = False
        self._gc_pending = False
        self._gc_plan = None
        if self._gc_segment_ids:
            # Cycle segments never recur; drop their entries at every
            # frequency, since a governor may have switched mid-cycle and
            # timed the rest on the miss path, so the cache stays bounded
            # by the program size.
            for cache in self._timing_cache.values():
                for sid in self._gc_segment_ids:
                    cache.pop(sid, None)
            self._gc_segment_ids = []
        self._emit(EventKind.GC_END, -1, plan.kind)
        woken = self.futex.wake_all(_KEY_GC_RENDEZVOUS)
        for tid in woken:
            self._wake_thread(tid, "gc-resume")

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------

    def _change_frequency(self, target_ghz: float) -> None:
        """Switch the chip frequency, rescaling in-flight segments."""
        now = self._queue.now_ns
        cost = self.dvfs.set_frequency(target_ghz)
        if cost == 0.0:
            return
        new_freq = self.dvfs.current_freq_ghz
        self._pending_transition_ns = 0.0
        for tid, thread in list(self._plans_inflight.items()):
            self._rescale_plan(thread, now, cost, new_freq)
        # Threads that start a fresh segment right after the switch also
        # pay the stall once.
        self._pending_transition_ns = cost
        self._emit(EventKind.FREQ_CHANGE, -1, f"{new_freq:.3f}GHz")
        if self.trace.intervals:
            self.trace.intervals[-1].transition_ns += cost

    def _change_core_frequencies(self, targets) -> None:
        """Per-core DVFS (the paper's future work): switch listed cores.

        Each switched core stalls for the transition cost; only the thread
        occupying it is rescaled. Requires ``per_core_dvfs=True``.
        """
        now = self._queue.now_ns
        for core, target_ghz in sorted(targets.items()):
            cost = self.dvfs.set_core_frequency(core, target_ghz)
            if cost == 0.0:
                continue
            new_freq = self.dvfs.frequency_of(core)
            occupant = next(
                (
                    t for t in self._threads.values()
                    if t.state is ThreadState.RUNNING and t.core == core
                ),
                None,
            )
            if occupant is not None and occupant.tid in self._plans_inflight:
                self._rescale_plan(occupant, now, cost, new_freq)
            # Emit after the rescale, like _change_frequency: the boundary
            # event's snapshot must carry the re-anchored counters, or the
            # epoch opening at this timestamp keeps the stale pre-rescale
            # snapshot and the next epoch's deltas can go negative.
            self._emit(EventKind.FREQ_CHANGE, -1, f"core{core}@{new_freq:.3f}GHz")
            if self.trace.intervals:
                self.trace.intervals[-1].transition_ns += cost

    def _rescale_plan(
        self, thread: SimThread, now: float, cost: float, new_freq: float
    ) -> None:
        """Re-anchor ``thread``'s current segment at ``new_freq``.

        The plan is truncated to the segment in flight (untimed leftovers
        return to the pending deque — their old-frequency timings are
        stale) and that segment is replaced by a single-segment plan as if
        it had run at the new frequency all along, preserving the
        completed fraction. The arithmetic matches the per-segment engine
        expression for expression.
        """
        if thread.state is not ThreadState.RUNNING or thread.plan_ends is None:
            return
        thread.sync_plan(now)
        if thread.segment_start_ns is None or not thread.segment_wall_ns:
            return
        i = thread.plan_index
        segment = thread.plan_segments[i]
        leftover = thread.plan_segments[i + 1:]
        if leftover:
            self._pending_segments[thread.tid].extendleft(reversed(leftover))
        elapsed = now - thread.segment_start_ns
        fraction = min(max(elapsed / thread.segment_wall_ns, 0.0), 1.0)
        timing = self.core_model.time_segment(segment, new_freq)
        remaining = (1.0 - fraction) * timing.wall_ns
        start = now + cost - fraction * timing.wall_ns
        done_at = now + cost + remaining
        thread.set_plan(
            start, [done_at], [timing.wall_ns], [timing.counters], [segment]
        )
        self._queue.push(done_at, ("seg", thread.tid, self._bump_token(thread.tid)))

    # ------------------------------------------------------------------
    # Intervals
    # ------------------------------------------------------------------

    def _open_interval(self, now: float) -> None:
        self._interval_start_ns = now
        self._interval_event_lo = len(self.trace.events)
        self._interval_snapshot = {
            tid: thread.partial_counters(now)
            for tid, thread in self._threads.items()
        }

    def _close_interval(self, now: float) -> IntervalRecord:
        per_thread: Dict[int, CounterSet] = {}
        for tid, thread in self._threads.items():
            baseline = self._interval_snapshot.get(tid, CounterSet())
            delta = thread.partial_counters(now).delta_since(baseline)
            if not delta.is_zero():
                per_thread[tid] = delta
        record = IntervalRecord(
            index=self._interval_index,
            start_ns=self._interval_start_ns,
            end_ns=now,
            freq_ghz=self.dvfs.current_freq_ghz,
            per_thread=per_thread,
            event_lo=self._interval_event_lo,
            event_hi=len(self.trace.events),
        )
        self.trace.intervals.append(record)
        self._interval_index += 1
        return record

    # ------------------------------------------------------------------
    # Trace emission and small helpers
    # ------------------------------------------------------------------

    def _emit(self, kind: EventKind, tid: int, detail: str = "") -> None:
        now = self._queue.now_ns
        running = self.scheduler.running_sorted()
        if tid >= 0 and tid not in running:
            snap_tids: Tuple[int, ...] = tuple(sorted(running + (tid,)))
        else:
            snap_tids = running
        threads = self._threads
        self._builder.append_event(
            now,
            tid,
            kind,
            self.dvfs.current_freq_ghz,
            running,
            [(t, threads[t].partial_counters(now)) for t in snap_tids],
            detail,
        )

    def _mutex(self, lock_id: int) -> MutexState:
        mutex = self._mutexes.get(lock_id)
        if mutex is None:
            mutex = MutexState(lock_id=lock_id)
            self._mutexes[lock_id] = mutex
        return mutex

    def _barrier(self, barrier_id: int, parties: int) -> BarrierState:
        barrier = self._barriers.get(barrier_id)
        if barrier is None:
            barrier = BarrierState(barrier_id=barrier_id, parties=parties)
            self._barriers[barrier_id] = barrier
        elif barrier.parties != parties:
            raise SimulationError(
                f"barrier {barrier_id} used with conflicting party counts "
                f"({barrier.parties} vs {parties})"
            )
        return barrier
