"""Differential invariants: redundant implementations must agree exactly.

Four pairs of independently-optimized paths claim bit-identical
semantics; each gets a differential invariant that executes the fuzzed
workload through both sides and compares *bytes*, not approximations:

* classic vs. fast DES engines — serialized traces and managed-run
  decision logs;
* scalar vs. vectorized predictor evaluation — per-target predictions
  from :func:`repro.core.vectorized.evaluate_predict_jobs` against the
  scalar reference;
* scalar vs. sweep-engine prediction — :mod:`repro.core.sweep`'s
  columnar decomposition and frequency kernels for every predictor,
  plus the energy-manager decision log under either candidate engine;
* in-process vs. served governors and predictors — a live
  :mod:`repro.serve` server replayed over the NDJSON wire.

The serve pair needs a running server: :class:`ServeHarness` stands one
up (unix socket when the platform has ``AF_UNIX``, loopback TCP
otherwise) and hands each :class:`~repro.qa.context.CaseContext` a
connected client. Contexts without a client report those invariants as
skipped rather than failed.
"""

from __future__ import annotations

import json
import socket
import tempfile
from typing import List, Optional

from repro.core.predictors import make_predictor, predictor_names
from repro.core.vectorized import PredictJob, evaluate_predict_jobs, scalar_results
from repro.qa.context import CaseContext
from repro.qa.invariants import register
from repro.sim.serialize import trace_to_dict

#: Message differential checks emit when the serve side is unavailable.
SERVE_SKIPPED = "serve differential skipped: no live server in this context"


def _trace_bytes(trace) -> bytes:
    """Canonical byte encoding of a trace (the parity currency)."""
    return json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    ).encode()


def _decision_bytes(decisions) -> bytes:
    from repro.serve import protocol
    from repro.serve.sessions import decision_to_wire

    return protocol.encode_frame(
        {"decisions": [decision_to_wire(d) for d in decisions]}
    )


# ----------------------------------------------------------------------
# Classic vs. fast engines
# ----------------------------------------------------------------------


@register(
    "diff-engine-trace",
    "classic and fast DES engines produce byte-identical serialized "
    "traces at a fixed frequency",
)
def _diff_engine_trace(context: CaseContext) -> List[str]:
    fast = context.result(engine="fast")
    classic = context.result(engine="classic")
    violations: List[str] = []
    if fast.total_ns != classic.total_ns:
        violations.append(
            f"total time diverges: fast {fast.total_ns!r} ns vs classic "
            f"{classic.total_ns!r} ns"
        )
    if _trace_bytes(fast.trace) != _trace_bytes(classic.trace):
        violations.append(
            "serialized traces differ between the fast and classic engines"
        )
    return violations


@register(
    "diff-engine-governor",
    "a managed run reproduces the identical decision log and trace on "
    "both DES engines",
)
def _diff_engine_governor(context: CaseContext) -> List[str]:
    fast_trace, fast_decisions = context.managed("fast")
    classic_trace, classic_decisions = context.managed("classic")
    violations: List[str] = []
    if _decision_bytes(fast_decisions) != _decision_bytes(classic_decisions):
        violations.append(
            f"manager decisions diverge: {len(fast_decisions)} fast vs "
            f"{len(classic_decisions)} classic"
        )
    if _trace_bytes(fast_trace) != _trace_bytes(classic_trace):
        violations.append("managed traces differ between engines")
    return violations


# ----------------------------------------------------------------------
# Scalar vs. vectorized predictors
# ----------------------------------------------------------------------


@register(
    "diff-predict-vectorized",
    "the columnar batch evaluator returns bit-identical predictions to "
    "the scalar DEP path, both CTP policies, with and without BURST",
)
def _diff_predict_vectorized(context: CaseContext) -> List[str]:
    violations: List[str] = []
    epochs = tuple(context.epochs())
    base = context.case.base_freq_ghz
    targets = tuple(context.target_ladder())
    jobs = [
        PredictJob(
            predictor=make_predictor(name, across_epoch_ctp=ctp),
            epochs=epochs,
            base_freq_ghz=base,
            target_freqs_ghz=targets,
        )
        for name in ("DEP", "DEP+BURST")
        for ctp in (True, False)
    ]
    vectorized = evaluate_predict_jobs(jobs)
    for job, batch in zip(jobs, vectorized):
        scalar = scalar_results(job)
        if batch != scalar:
            policy = "across" if job.predictor.across_epoch_ctp else "per"
            violations.append(
                f"{job.predictor.name} ({policy}-epoch CTP): vectorized "
                f"{batch!r} != scalar {scalar!r}"
            )
    return violations


# ----------------------------------------------------------------------
# Scalar vs. sweep kernels
# ----------------------------------------------------------------------


@register(
    "sweep-scalar-identity",
    "the simulate-once sweep engine (columnar decomposition + frequency "
    "kernels) is byte-identical to the scalar per-frequency path for all "
    "predictors, at plain and uncore-2.0 targets, and leaves "
    "energy-manager decisions unchanged",
)
def _sweep_scalar_identity(context: CaseContext) -> List[str]:
    from repro.core.epochs import extract_epochs
    from repro.core.sweep import EpochArrays, TraceSweep, sweep_predict_epochs

    violations: List[str] = []
    trace = context.result().trace
    base = context.case.base_freq_ghz
    targets = context.target_ladder()

    # The decomposition itself: columnar arrays must reproduce the
    # reference per-event walk record for record.
    reference = extract_epochs(trace.events)
    if EpochArrays.from_trace(trace).to_epochs() != reference:
        violations.append(
            "columnar epoch decomposition differs from extract_epochs"
        )

    sweep = TraceSweep(trace)
    epochs = context.epochs()
    arrays = EpochArrays.from_epochs(epochs)
    # Plain targets, then the same ladder as (f, 2.0) uncore lanes.
    lane_sets = ((targets, 1.0), ([(t, 2.0) for t in targets], 2.0))
    for name in predictor_names():
        predictor = make_predictor(name)
        for lanes, uncore in lane_sets:
            checks = (
                ("whole-trace", sweep.predict(predictor, lanes), [
                    predictor.predict_total_ns(trace, t, uncore_scale=uncore)
                    for t in targets
                ]),
                ("window", sweep_predict_epochs(predictor, arrays, base, lanes), [
                    predictor.predict_epochs(epochs, base, t, uncore_scale=uncore)
                    for t in targets
                ]),
            )
            for kind, swept, scalar in checks:
                if swept != scalar:
                    violations.append(
                        f"{name} (uncore {uncore}): {kind} sweep {swept!r} "
                        f"!= scalar {scalar!r}"
                    )

    # The consumer that matters most: per-quantum governor decisions must
    # not depend on which engine scored the candidate table.
    _, swept = context.managed("fast", sweep=True)
    _, scalar = context.managed("fast", sweep=False)
    if _decision_bytes(swept) != _decision_bytes(scalar):
        violations.append(
            f"manager decisions diverge between sweep ({len(swept)}) and "
            f"scalar ({len(scalar)}) candidate evaluation"
        )
    return violations


# ----------------------------------------------------------------------
# Batched vs. single-instance simulation
# ----------------------------------------------------------------------


@register(
    "batch-single-identity",
    "simulating a case inside a batch (fixed lanes at both case "
    "frequencies plus a governor lane) is byte-identical to the "
    "single-instance runs: traces, epochs and manager decisions",
)
def _batch_single_identity(context: CaseContext) -> List[str]:
    from repro.core.epochs import extract_epochs
    from repro.energy.manager import EnergyManager
    from repro.sim.batch import BatchInstance, simulate_batch

    case = context.case
    program = context.program
    manager = EnergyManager(context.spec, case.manager)
    freqs = list(dict.fromkeys((case.base_freq_ghz, case.high_freq_ghz)))
    instances = [
        BatchInstance(
            program=program, freq_ghz=freq, spec=context.spec,
            quantum_ns=case.quantum_ns, label=f"fixed@{freq}",
        )
        for freq in freqs
    ]
    instances.append(
        BatchInstance(
            program=program, governor=manager, spec=context.spec,
            quantum_ns=case.quantum_ns, label="managed",
        )
    )
    batched = simulate_batch(instances)

    violations: List[str] = []
    for freq, result in zip(freqs, batched):
        solo = context.result(freq)
        if _trace_bytes(result.trace) != _trace_bytes(solo.trace):
            violations.append(
                f"batched trace at {freq} GHz differs from the "
                "single-instance run"
            )
        elif extract_epochs(result.trace.events) != context.epochs(freq):
            violations.append(
                f"batched epochs at {freq} GHz differ from the "
                "single-instance decomposition"
            )
    solo_trace, solo_decisions = context.managed("fast")
    if _trace_bytes(batched[-1].trace) != _trace_bytes(solo_trace):
        violations.append(
            "batched managed trace differs from the single-instance run"
        )
    if _decision_bytes(manager.decisions) != _decision_bytes(solo_decisions):
        violations.append(
            f"batched governor decisions ({len(manager.decisions)}) differ "
            f"from the single-instance log ({len(solo_decisions)})"
        )
    return violations


# ----------------------------------------------------------------------
# Heterogeneous hardware: single-domain identity + V/f physicality
# ----------------------------------------------------------------------


@register(
    "hetero-single-domain-identity",
    "a single-cluster topology with the legacy V/f table reproduces the "
    "chip-wide manager byte for byte, (f, 1.0) target tuples are "
    "bit-identical to plain frequency targets, and heterogeneous sweeps "
    "match the scalar uncore path for every predictor",
)
def _hetero_single_domain_identity(context: CaseContext) -> List[str]:
    from repro.arch.clusters import homogeneous
    from repro.core.sweep import EpochArrays, sweep_predict_epochs
    from repro.energy.manager import ClusterManager
    from repro.sim.run import simulate_managed

    case = context.case
    violations: List[str] = []

    # Governor identity: the homogeneous one-cluster topology is the
    # legacy machine and must leave no trace of the hetero layer.
    manager = ClusterManager(homogeneous(context.spec), case.manager)
    result = simulate_managed(
        context.program,
        manager,
        spec=context.spec,
        quantum_ns=case.quantum_ns,
        engine="fast",
    )
    legacy_trace, legacy_decisions = context.managed("fast")
    if _trace_bytes(result.trace) != _trace_bytes(legacy_trace):
        violations.append(
            "single-domain managed trace differs from the chip-wide "
            "manager's"
        )
    if _decision_bytes(manager.decisions) != _decision_bytes(legacy_decisions):
        violations.append(
            f"single-domain decisions ({len(manager.decisions)}) differ "
            f"from the chip-wide log ({len(legacy_decisions)})"
        )

    # Target-tuple identity and hetero sweep-vs-scalar parity.
    epochs = context.epochs()
    arrays = EpochArrays.from_epochs(epochs)
    base = case.base_freq_ghz
    targets = context.target_ladder()
    uncore = case.uncore_scale
    for name in predictor_names():
        predictor = make_predictor(name)
        plain = sweep_predict_epochs(predictor, arrays, base, targets)
        tupled = sweep_predict_epochs(
            predictor, arrays, base, [(target, 1.0) for target in targets]
        )
        if plain != tupled:
            violations.append(
                f"{name}: (f, 1.0) tuples {tupled!r} != plain targets "
                f"{plain!r}"
            )
        if uncore != 1.0:
            swept = sweep_predict_epochs(
                predictor, arrays, base,
                [(target, uncore) for target in targets],
            )
            scalar = [
                predictor.predict_epochs(
                    epochs, base, target, uncore_scale=uncore
                )
                for target in targets
            ]
            if swept != scalar:
                violations.append(
                    f"{name} at uncore {uncore}: sweep {swept!r} != scalar "
                    f"{scalar!r}"
                )
    return violations


@register(
    "vf-table-physicality",
    "the case's tech-node V/f table is physical: f_min <= f_max on the "
    "machine grid, voltage strictly increasing and never below the Vth "
    "floor, chip power strictly increasing along the ladder, and table/"
    "cluster specs round-trip through JSON exactly",
)
def _vf_table_physicality(context: CaseContext) -> List[str]:
    from repro.arch.clusters import ClusterTopology, big_little, homogeneous
    from repro.energy.power import PowerModel, node_power_config
    from repro.energy.vftable import NodeVfTable

    case = context.case
    spec = context.spec
    violations: List[str] = []
    table = NodeVfTable(spec, case.node_nm, case.node_scaling)
    node = table.node
    rows = table.rows()
    label = f"{node.node_nm}nm-{node.scaling}"
    if not rows:
        return [f"{label}: table has no supported set points"]
    if table.f_min_ghz > table.f_max_ghz:
        violations.append(
            f"{label}: f_min {table.f_min_ghz} > f_max {table.f_max_ghz}"
        )
    grid = set(spec.frequencies())
    off_grid = [freq for freq, _ in rows if freq not in grid]
    if off_grid:
        violations.append(f"{label}: set points off the machine grid: {off_grid}")
    previous = None
    for freq, voltage in rows:
        if voltage < node.v_floor - 1e-9:
            violations.append(
                f"{label}: {freq} GHz at {voltage:.4f} V is below the "
                f"Vth floor {node.v_floor:.4f} V"
            )
        if previous is not None and voltage <= previous:
            violations.append(
                f"{label}: voltage not strictly increasing at {freq} GHz"
            )
        previous = voltage
    model = PowerModel(spec, node_power_config(node), vf_table=table)
    max_powers = [model.max_power_w(freq) for freq, _ in rows]
    static_powers = [model.static_power_w(freq) for freq, _ in rows]
    for i in range(1, len(rows)):
        if max_powers[i] <= max_powers[i - 1]:
            violations.append(
                f"{label}: max power not strictly increasing at "
                f"{rows[i][0]} GHz"
            )
        if static_powers[i] < static_powers[i - 1]:
            violations.append(
                f"{label}: static power decreasing at {rows[i][0]} GHz"
            )
    clone = NodeVfTable.from_dict(json.loads(json.dumps(table.to_dict())))
    if clone.rows() != rows:
        violations.append(f"{label}: JSON round-trip changed the table")
    for topology in (homogeneous(spec), big_little(spec)):
        rebuilt = ClusterTopology.from_dict(
            json.loads(json.dumps(topology.to_dict())), spec
        )
        if rebuilt.clusters != topology.clusters:
            violations.append(
                f"cluster topology {[c.name for c in topology.clusters]} "
                "does not round-trip through JSON"
            )
    return violations


# ----------------------------------------------------------------------
# In-process vs. served (over the NDJSON wire)
# ----------------------------------------------------------------------


@register(
    "diff-serve-predict",
    "the predict endpoint returns bit-identical results to in-process "
    "predict_epochs for every predictor (repr-exact float round-trip)",
)
def _diff_serve_predict(context: CaseContext) -> List[str]:
    client = context.serve_client
    if client is None:
        return [SERVE_SKIPPED]
    epochs = context.epochs()
    base = context.case.base_freq_ghz
    targets = context.target_ladder()
    violations: List[str] = []
    for name in predictor_names():
        reply = client.predict(
            epochs, base, predictor=name, target_freqs_ghz=targets
        )
        expected = [
            make_predictor(name).predict_epochs(epochs, base, target)
            for target in targets
        ]
        if reply["predicted_ns"] != expected:
            violations.append(
                f"{name}: served {reply['predicted_ns']!r} != in-process "
                f"{expected!r}"
            )
    return violations


@register(
    "diff-serve-governor",
    "replaying a managed trace through a server-side govern session "
    "reproduces the in-process decision log byte for byte",
)
def _diff_serve_governor(context: CaseContext) -> List[str]:
    client = context.serve_client
    if client is None:
        return [SERVE_SKIPPED]
    from repro.serve.client import replay_decisions

    trace, local = context.managed("fast")
    remote = replay_decisions(client, trace, context.case.manager)
    if _decision_bytes(remote) != _decision_bytes(local):
        return [
            f"served decision log ({len(remote)} decisions) differs from "
            f"the in-process log ({len(local)} decisions)"
        ]
    return []


# ----------------------------------------------------------------------
# The live server the serve differentials talk to
# ----------------------------------------------------------------------


class ServeHarness:
    """One background server + client shared across a QA run.

    Prefers a unix socket in a private temporary directory; platforms
    without ``AF_UNIX`` get loopback TCP on an ephemeral port, so
    parallel QA runs never collide on an endpoint either way.
    """

    def __init__(self) -> None:
        from repro.serve.background import BackgroundServer
        from repro.serve.server import ServeConfig

        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if hasattr(socket, "AF_UNIX"):
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-qa-serve-")
            config = ServeConfig(socket_path=f"{self._tmp.name}/qa.sock")
        else:
            config = ServeConfig(host="127.0.0.1", port=0)
        self.server = BackgroundServer(config)
        self.server.start()
        self.client = self._connect()

    def _connect(self):
        from repro.serve.client import ServeClient

        if self.server.config.socket_path is not None:
            return ServeClient.connect(socket_path=self.server.config.socket_path)
        return ServeClient.connect(host="127.0.0.1", port=self.server.tcp_port)

    def close(self) -> None:
        """Tear down client, server and socket directory (idempotent)."""
        try:
            self.client.close()
        finally:
            self.server.stop()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None

    def __enter__(self) -> "ServeHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
