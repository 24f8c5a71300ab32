"""Batched many-trace simulation: one corpus, shared columnar timing state.

:func:`simulate_batch` advances many independent (workload, frequency,
config) instances and returns one :class:`~repro.sim.run.SimulationResult`
per instance, in lane order, byte-identical to running
:func:`repro.sim.run.simulate` / :func:`~repro.sim.run.simulate_managed`
once per instance. What batching changes is *where the time goes*, not
what is computed:

* lanes that share a program and machine spec attach to one
  :class:`SharedTimingStore` — the ``freq -> {id(segment): timing}``
  structure every :class:`~repro.sim.system.System` keeps privately —
  so the static program is pre-timed **once per frequency for the whole
  group** instead of once per lane;
* the pre-timing itself runs through
  :meth:`~repro.arch.core.CoreModel.time_batch_multi`: all of a group's
  distinct lane frequencies are evaluated in one cache-blocked columnar
  pass over the concatenated cluster arrays, instead of streaming them
  from memory once per frequency;
* the group's lanes share one :class:`~repro.jvm.gc.GcModel` per GC
  config, so each GC cycle program is built once for the group instead
  of once per lane. Cycle *timings* stay lane-private: a System evicts
  them, at every frequency, when the cycle ends.

The batch runs one group at a time: a group's lanes are built, its store
pre-warmed, its lanes run against it, and all of it dropped before the
next group starts, so a batch over many programs holds one group's
simulation state at a time. Groups are independent — they share no
state — so neither this order nor the interleaving of their lanes in
the input can change a result (``tests/property/test_batch_prop.py``
pins the permutation and split laws).

Within a group, lanes execute their event loops against the warmed
store. Divergence needs no special handling by construction: each lane
owns its event queue, scheduler, and runtime, so instances of different
lengths, with different GC schedules, or under different governors
simply run to completion and *park* (their lane state flips to
``"parked"``; see :class:`BatchReport.lane_states`). The shared state
is exactly the part of the simulation that is a pure function of
``(segment, frequency)``, plus GC cycle programs, a pure function of
(GC config, DRAM config, program seed, cycle arguments) on which a
group's lanes agree except for the cycle arguments the model's cache
keys on.

``engine="classic"`` lanes never share: the classic engine is the
per-segment oracle and runs untouched, one plain :class:`System` (and
one private GC model) per lane. A batch mixing engines is rejected with
:class:`~repro.common.errors.ConfigError` — differential tests compare
whole batches *across* engines, and a silently mixed batch would
invalidate the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.core import CoreModel
from repro.arch.segments import Segment, SegmentBatch
from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.jvm.gc import GcConfig, GcModel
from repro.jvm.runtime import JvmConfig
from repro.sim.run import SimulationResult
from repro.sim.system import Governor, System
from repro.workloads.program import Program

#: Lane lifecycle states exposed by :class:`BatchReport.lane_states`.
LANE_PENDING = "pending"
LANE_ACTIVE = "active"
LANE_PARKED = "parked"


@dataclass
class BatchInstance:
    """One lane of a batched simulation: a program plus how to run it.

    Mirrors the keyword surface of :func:`repro.sim.run.simulate` (fixed
    frequency) and :func:`~repro.sim.run.simulate_managed` (``governor``
    set, ``freq_ghz`` optionally overriding the initial frequency).
    Fast-engine lanes that pass the *same* ``program`` and ``spec``
    objects share a timing store and, per GC config, one GC model;
    value-equal copies simulate identically but warm and build cycles
    separately.
    """

    program: Program
    freq_ghz: Optional[float] = None
    governor: Optional[Governor] = None
    spec: Optional[MachineSpec] = None
    jvm_config: Optional[JvmConfig] = None
    quantum_ns: float = 5.0e6
    max_ns: Optional[float] = None
    engine: str = "fast"
    label: str = ""

    def __post_init__(self) -> None:
        if self.engine not in ("fast", "classic"):
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected 'fast' or 'classic'"
            )
        if self.freq_ghz is None and self.governor is None:
            raise ConfigError(
                "a BatchInstance needs freq_ghz (fixed run) and/or "
                "governor (managed run)"
            )


@dataclass
class BatchReport:
    """What one :func:`run_batch` call did, beyond the results themselves."""

    #: One result per instance, in input (lane) order.
    results: List[SimulationResult]
    #: Final lane states — all ``"parked"`` after a completed run.
    lane_states: List[str]
    #: Number of (program, spec) sharing groups the batch decomposed into.
    groups: int = 0
    #: Frequencies pre-timed by the multi-frequency warm, across groups.
    prewarmed_freqs: int = 0


class SharedTimingStore:
    """Per-(program, spec) timing state shared by the lanes of one group.

    Holds the exact ``freq -> {id(segment): (segment, wall, counters)}``
    mapping a :class:`~repro.sim.system.System` keeps per instance;
    constructing a System with ``timing_store=`` makes it use these
    dictionaries instead of private ones. Because timing is a pure
    function of ``(segment, frequency)`` for a fixed spec, any lane's
    entry is every lane's entry — sharing is purely an optimization and
    cannot perturb a bit.

    Lanes run one at a time, so no locking: a lane that warms a
    frequency does so exactly as it would privately, and later lanes
    hit. A GC cycle's timings are evicted at every frequency when the
    cycle ends, so they never outlive it here. Values keep strong
    references to their segments, pinning the ids they are keyed by.
    """

    def __init__(self) -> None:
        self.caches: Dict[float, Dict[int, Tuple]] = {}
        self.prewarmed: List[float] = []
        #: One collector model per GC config, so the group builds each
        #: cycle once; cycles are a pure function of (config, DRAM, seed,
        #: cycle arguments) and the group agrees on DRAM and seed.
        self.gc_models: Dict[GcConfig, GcModel] = {}

    def prewarm(
        self,
        core_model: CoreModel,
        segments: Sequence[Segment],
        freqs_ghz: Sequence[float],
    ) -> None:
        """Pre-time ``segments`` at every frequency in one columnar pass.

        ``segments`` is the union of the group's static segments (each
        lane's application + JIT programs). Frequencies already present
        in the store are skipped; the rest are filled through
        :meth:`~repro.arch.core.CoreModel.time_batch_multi`, which is
        bit-identical per segment to the per-frequency warm a solo
        System performs in ``_freq_cache``.
        """
        todo = [f for f in dict.fromkeys(freqs_ghz) if f not in self.caches]
        if not todo:
            return
        if not segments:
            for freq in todo:
                self.caches[freq] = {}
                self.prewarmed.append(freq)
            return
        batch = SegmentBatch(list(segments))
        for freq, timing in zip(todo, core_model.time_batch_multi(batch, todo)):
            cache: Dict[int, Tuple] = {}
            for segment, wall, counters in zip(
                segments, timing.walls, timing.counters
            ):
                cache[id(segment)] = (segment, wall, counters)
            self.caches[freq] = cache
            self.prewarmed.append(freq)


@dataclass
class _Lane:
    """Internal pairing of an instance with its constructed simulator."""

    instance: BatchInstance
    spec: MachineSpec
    system: System
    store: Optional[SharedTimingStore] = None


def _single_engine(instances: Sequence[BatchInstance]) -> str:
    """The one engine every lane uses; a mixed batch is a ConfigError."""
    engines = {instance.engine for instance in instances}
    if len(engines) > 1:
        raise ConfigError(
            f"a batch must use a single engine, got {sorted(engines)}; "
            "run classic oracle lanes as their own batch"
        )
    return engines.pop()


def _build_lanes(
    instances: Sequence[BatchInstance],
    default_spec: Optional[MachineSpec] = None,
) -> Tuple[List[_Lane], Dict[Tuple[int, int], SharedTimingStore]]:
    engine = _single_engine(instances)
    stores: Dict[Tuple[int, int], SharedTimingStore] = {}
    lanes: List[_Lane] = []
    for instance in instances:
        spec = instance.spec
        if spec is None:
            if default_spec is None:
                default_spec = haswell_i7_4770k()
            spec = default_spec
        store = gc_model = None
        if engine == "fast":
            # Timing is a pure function of (segment, frequency) given a
            # spec; identity (not equality) keys keep sharing exact.
            key = (id(instance.program), id(spec))
            store = stores.get(key)
            if store is None:
                store = stores[key] = SharedTimingStore()
            gc = (instance.jvm_config or JvmConfig()).gc
            gc_model = store.gc_models.get(gc)
            if gc_model is None:
                gc_model = store.gc_models[gc] = GcModel(
                    gc, spec.dram, instance.program.seed
                )
        system = System(
            instance.program,
            spec=spec,
            jvm_config=instance.jvm_config,
            governor=instance.governor,
            freq_ghz=instance.freq_ghz,
            quantum_ns=instance.quantum_ns,
            gc_model=gc_model,
            engine=engine,
            timing_store=store,
        )
        lanes.append(_Lane(instance=instance, spec=spec, system=system, store=store))
    return lanes, stores


def _sharing_groups(
    instances: Sequence[BatchInstance], engine: str
) -> List[List[int]]:
    """Lane indices per sharing group, groups in first-seen order.

    Fast lanes group by ``(program, spec)`` identity, as :func:`_build_lanes`
    keys its stores (every ``spec=None`` lane gets the batch's one
    default spec); classic lanes never share, so each is its own group.
    """
    groups: Dict[object, List[int]] = {}
    for index, instance in enumerate(instances):
        key = (
            (id(instance.program), id(instance.spec))
            if engine == "fast"
            else index
        )
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def _run_group(
    instances: Sequence[BatchInstance], default_spec: Optional[MachineSpec]
) -> BatchReport:
    """Build, pre-warm and run the lanes of one sharing group, in order.

    The lanes, their Systems and the group's store are locals, so they
    are unreachable once this returns; only the results outlive it.
    """
    lanes, stores = _build_lanes(instances, default_spec)
    prewarmed = 0
    for store in stores.values():
        freqs = list(
            dict.fromkeys(lane.system.dvfs.current_freq_ghz for lane in lanes)
        )
        # Union of the group's static segments by identity: lanes share
        # the program's segment objects, but each System builds its own
        # (deterministic) JIT thread whose segments are lane-private.
        union: Dict[int, Segment] = {}
        for lane in lanes:
            for segment in lane.system._static_segments:
                union.setdefault(id(segment), segment)
        store.prewarm(lanes[0].system.core_model, list(union.values()), freqs)
        prewarmed += len(store.prewarmed)
    states = [LANE_PENDING] * len(lanes)
    results: List[SimulationResult] = []
    for index, lane in enumerate(lanes):
        states[index] = LANE_ACTIVE
        trace = lane.system.run(max_ns=lane.instance.max_ns)
        results.append(SimulationResult(trace=trace, spec=lane.spec))
        states[index] = LANE_PARKED
    return BatchReport(
        results=results,
        lane_states=states,
        groups=len(stores),
        prewarmed_freqs=prewarmed,
    )


def run_batch(instances: Sequence[BatchInstance]) -> BatchReport:
    """Simulate every instance; return results plus batch diagnostics.

    The batch runs one sharing group at a time, groups in first-seen
    order and lanes in input order within a group. A group's lanes are
    all constructed first (so its full static-segment union — including
    per-lane JIT programs — is known), then its store is pre-warmed at
    the group's distinct starting frequencies in one multi-frequency
    pass, then its lanes execute against the warmed store, and the
    group's Systems and store are dropped before the next group is
    built. A governor lane that later visits a frequency the store has
    not seen warms it on demand, exactly as a solo System would — and
    later lanes of the group inherit that too. Lanes are independent,
    so this order changes no result; results and lane states come back
    in input order.
    """
    instances = list(instances)
    if not instances:
        return BatchReport(results=[], lane_states=[])
    engine = _single_engine(instances)
    default_spec = None
    if any(instance.spec is None for instance in instances):
        default_spec = haswell_i7_4770k()
    report = BatchReport(
        results=[None] * len(instances),
        lane_states=[LANE_PENDING] * len(instances),
    )
    for indices in _sharing_groups(instances, engine):
        group = _run_group([instances[i] for i in indices], default_spec)
        for index, result, state in zip(
            indices, group.results, group.lane_states
        ):
            report.results[index] = result
            report.lane_states[index] = state
        report.groups += group.groups
        report.prewarmed_freqs += group.prewarmed_freqs
    return report


def simulate_batch(instances: Sequence[BatchInstance]) -> List[SimulationResult]:
    """Batched :func:`repro.sim.run.simulate`: one result per lane, in order.

    Byte-identical to simulating each instance on its own; see the
    module docstring for what is shared and why that cannot change a
    result. ``tests/sim/test_batch_differential.py`` and the
    ``batch-single-identity`` QA invariant pin the identity.
    """
    return run_batch(instances).results
