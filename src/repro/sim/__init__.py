"""Discrete-event full-system simulation.

:class:`~repro.sim.system.System` wires the substrates together — cores
(:mod:`repro.arch`), OS (:mod:`repro.osmodel`), managed runtime
(:mod:`repro.jvm`) — and executes a :class:`~repro.workloads.program.Program`
at a fixed frequency or under a DVFS governor. The run produces a
:class:`~repro.sim.trace.SimulationTrace`: the futex-level event stream the
paper's kernel module would observe, per-thread performance-counter
snapshots, and per-quantum interval records for the energy machinery.

Ground truth for predictor evaluation is obtained by re-simulating the same
program at the target frequency (:func:`repro.sim.run.simulate`).
"""

from repro.common.lazy import lazy_exports

# Re-exports load on first access: importing one submodule (say
# ``repro.sim.trace``) does not load the engine, the JVM or the workloads.
__getattr__ = lazy_exports(__name__, {
    "repro.sim.batch": ("BatchInstance", "BatchReport", "run_batch", "simulate_batch"),
    "repro.sim.run": ("SimulationResult", "simulate"),
    "repro.sim.serialize": ("load_trace", "save_trace"),
    "repro.sim.system": ("System",),
    "repro.sim.trace": ("EventKind", "SimulationTrace", "ThreadInfo", "TraceEvent"),
    "repro.sim.intervals": ("IntervalRecord",),
})

__all__ = [
    "BatchInstance",
    "BatchReport",
    "EventKind",
    "IntervalRecord",
    "SimulationResult",
    "SimulationTrace",
    "System",
    "ThreadInfo",
    "TraceEvent",
    "load_trace",
    "run_batch",
    "save_trace",
    "simulate",
    "simulate_batch",
]
