"""The fleet engine: deterministic event-driven tenant dynamics.

One :func:`run_fleet` call is a pure function of its
:class:`FleetConfig` (plus optional injected tenants/arrivals/store for
tests and the QA invariant): draw the tenant population, generate the
arrival process, build the profiles (batched by default), then advance
a fluid event model — between events every running tenant burns
remaining work at the rate of its assigned set point and accumulates
energy at that set point's average power; events are tenant arrivals
and completions, processed in deterministic order (completions first on
ties, then by tenant sequence number).

Capped policies interact with the fleet power cap at every event:
strict-FIFO admission against the *floor* assignment (every running
tenant at its cheapest candidate — so admission never depends on how
generously the allocator raised anyone), then the policy's
re-allocation hook. A tenant whose cheapest candidate alone exceeds
the cap is admitted only onto an empty fleet and counted as a solo
override; with two or more tenants running, exceeding the cap is a
``cap_violation`` — the dominance invariant requires zero.

The whole-run slowdown a tenant is judged on *includes queue wait*:
``(completion - arrival) / baseline_at_max - 1``, against the tenant's
``sla_slowdown``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.specs import MachineSpec, haswell_i7_4770k
from repro.common.errors import ConfigError
from repro.fleet.arrivals import ArrivalConfig, generate_arrivals
from repro.fleet.corpus import builtin_templates, draw_tenants, load_corpus_dir
from repro.fleet.policy import Candidate, FleetPolicy, get_policy
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import FleetReport, percentile
from repro.fleet.tenants import TenantSpec

#: Relative slack on power-cap comparisons (float accumulation).
_CAP_REL_EPS = 1e-9
#: Absolute slack on SLA comparisons.
_SLA_ABS_EPS = 1e-9

_INFINITY = float("inf")


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run, fully specified."""

    tenants: int = 100
    seed: int = 0
    policy: str = "paper-governor"
    #: Fleet-wide power budget (W) the capped policies respect.
    power_cap_w: float = 400.0
    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    #: Build profiles batched — dedup by shape plus repro.sim.batch —
    #: instead of simulating every tenant solo (identical results
    #: either way; see ProfileStore.build).
    batch: bool = True
    #: Directories of promoted tenant specs to merge into the corpus.
    corpus_dirs: Tuple[str, ...] = ()
    #: Validate governor decision streams through a live serve pool of
    #: this many workers (0 disables).
    serve_workers: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError("tenants must be >= 1")
        if self.power_cap_w <= 0:
            raise ConfigError("power_cap_w must be positive")
        if self.serve_workers < 0:
            raise ConfigError("serve_workers must be >= 0")

    def describe(self) -> Dict[str, object]:
        """The report's ``config`` block (execution details excluded)."""
        return {
            "tenants": self.tenants,
            "seed": self.seed,
            "policy": self.policy,
            "power_cap_w": self.power_cap_w,
            "arrivals": asdict(self.arrivals),
            "corpus_dirs": list(self.corpus_dirs),
        }


def _power_table(cands: Sequence[Candidate]) -> Tuple[Tuple[float, ...], float]:
    """Candidate powers of one candidate tuple, and its cheapest raise:
    the lowest power above the floor (infinity with a single candidate)."""
    powers = tuple(cand.power_w for cand in cands)
    return powers, min(powers[1:], default=_INFINITY)


class _Running:
    """Mutable state of one admitted tenant."""

    __slots__ = (
        "seq", "cands", "powers", "raise_w", "cand", "work", "energy_j",
        "start_ns",
    )

    def __init__(
        self,
        seq: int,
        cands: Sequence[Candidate],
        table: Tuple[Tuple[float, ...], float],
        start_ns: float,
    ) -> None:
        self.seq = seq
        self.cands = cands
        self.powers, self.raise_w = table
        self.cand = 0
        self.work = 1.0  # fraction of the run remaining
        self.energy_j = 0.0
        self.start_ns = start_ns

    def completion_ns(self, at_ns: float) -> float:
        return at_ns + self.work * self.cands[self.cand].duration_ns


def _corpus_templates(config: FleetConfig):
    templates = builtin_templates()
    for directory in config.corpus_dirs:
        templates.extend(load_corpus_dir(directory))
    return templates


def _tail_reallocate(
    running: Dict[int, _Running],
    cap_w: float,
    now_ns: float,
    arrivals_ns: Sequence[float],
    baselines: Sequence[float],
) -> None:
    """The tail-aware assignment: floor everyone, then spend the budget
    on the worst projected whole-run slowdown first.

    Each tenant in turn is raised to its fastest candidate that still
    fits under the cap. Float addition is monotone, so when even the
    cheapest raise (``raise_w``) does not fit, none does and the tenant
    is skipped without scanning its candidates.
    """
    power = 0.0
    order = []
    for run in running.values():
        run.cand = 0
        power += run.powers[0]
        seq = run.seq
        completion = now_ns + run.work * run.cands[0].duration_ns
        order.append(
            (-((completion - arrivals_ns[seq]) / baselines[seq] - 1.0), seq, run)
        )
    order.sort()
    cap = cap_w * (1.0 + _CAP_REL_EPS)
    for _, _, run in order:
        rest = power - run.powers[0]
        if rest + run.raise_w > cap:
            continue
        powers = run.powers
        for j in range(len(powers) - 1, 0, -1):
            headroom = rest + powers[j]
            if headroom <= cap:
                power = headroom
                run.cand = j
                break


def run_fleet(
    config: FleetConfig,
    spec: Optional[MachineSpec] = None,
    store: Optional[ProfileStore] = None,
    tenants: Optional[Sequence[TenantSpec]] = None,
    arrivals_ns: Optional[Sequence[float]] = None,
) -> FleetReport:
    """Run one fleet and return its report.

    ``tenants``/``arrivals_ns``/``store`` override the drawn population,
    the generated arrival process and the profile store — the test
    suite and the dominance invariant inject known populations this
    way; production runs derive everything from ``config.seed``.
    """
    spec = spec or haswell_i7_4770k()
    if tenants is None:
        tenants = draw_tenants(
            _corpus_templates(config), config.tenants, config.seed
        )
    else:
        tenants = list(tenants)
    n = len(tenants)
    if arrivals_ns is None:
        arrivals_ns = [
            t * 1e9
            for t in generate_arrivals(config.arrivals, n, config.seed)
        ]
    else:
        arrivals_ns = list(arrivals_ns)
    if len(arrivals_ns) != n:
        raise ConfigError(
            f"{n} tenant(s) but {len(arrivals_ns)} arrival time(s)"
        )
    if store is None:
        store = ProfileStore(spec)
    diagnostics = store.build(tenants, batch=config.batch)
    diagnostics["batched"] = config.batch

    policy_cls = get_policy(config.policy)
    policy: FleetPolicy = policy_cls(store, config.power_cap_w)

    profiles = [store.profile_for(tenant) for tenant in tenants]
    baselines = [profile.baseline_ns for profile in profiles]
    for tenant, baseline in zip(tenants, baselines):
        if baseline <= 0:
            raise ConfigError(
                f"tenant {tenant.name!r} has a non-positive baseline"
            )
    if policy.capped:
        candidates = [policy.candidates(tenant) for tenant in tenants]
    else:
        plans = [policy.plan(tenant) for tenant in tenants]
        candidates = [(_plan_candidate(plan),) for plan in plans]
    # Capped policies share one candidate tuple per profile: build its
    # power table once.
    shared_tables: Dict[int, Tuple[Tuple[float, ...], float]] = {}
    tables = []
    for cands in candidates:
        table = shared_tables.get(id(cands))
        if table is None:
            table = shared_tables[id(cands)] = _power_table(cands)
        tables.append(table)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    running: Dict[int, _Running] = {}
    queue: deque = deque()
    rows: List[Optional[Dict[str, object]]] = [None] * n
    last_ns = 0.0
    peak_power_w = 0.0
    peak_concurrency = 0
    cap_violations = 0
    solo_overrides = 0
    makespan_ns = 0.0
    next_index = 0
    cap = config.power_cap_w * (1.0 + _CAP_REL_EPS)

    def advance(now_ns: float) -> None:
        nonlocal last_ns
        dt = now_ns - last_ns
        if dt > 0.0:
            for run in running.values():
                cand = run.cands[run.cand]
                run.work -= dt / cand.duration_ns
                run.energy_j += dt * 1e-9 * cand.power_w
        last_ns = now_ns

    def start(seq: int, now_ns: float) -> None:
        nonlocal solo_overrides
        run = _Running(seq, candidates[seq], tables[seq], now_ns)
        if not running and run.powers[0] > cap:
            solo_overrides += 1
        running[seq] = run

    def admit(now_ns: float) -> None:
        while queue:
            seq = queue[0]
            floor = sum([run.powers[0] for run in running.values()])
            head_power = candidates[seq][0].power_w
            if running and floor + head_power > cap:
                break
            queue.popleft()
            start(seq, now_ns)

    def finalize(seq: int, run: _Running, end_ns: float) -> None:
        nonlocal makespan_ns
        tenant = tenants[seq]
        # No plan beats the all-max baseline, so a negative value here is
        # pure float error — clamp it out of the report.
        slowdown = max(
            0.0, (end_ns - arrivals_ns[seq]) / baselines[seq] - 1.0
        )
        cand = run.cands[run.cand]
        rows[seq] = {
            "name": tenant.name,
            "origin": tenant.origin,
            "profile": profiles[seq].key,
            "arrival_ns": arrivals_ns[seq],
            "start_ns": run.start_ns,
            "end_ns": end_ns,
            "energy_j": run.energy_j,
            "slowdown": slowdown,
            "sla_slowdown": tenant.sla_slowdown,
            "sla_miss": slowdown > tenant.sla_slowdown + _SLA_ABS_EPS,
            "freq_ghz": (
                None
                if cand.freq_index is None
                else profiles[seq].targets[cand.freq_index]
            ),
        }
        makespan_ns = max(makespan_ns, end_ns)

    while next_index < n or running or queue:
        next_arrival = (
            arrivals_ns[next_index] if next_index < n else _INFINITY
        )
        completion: Tuple[float, int] = (_INFINITY, -1)
        for seq, run in running.items():
            when = run.completion_ns(last_ns)
            if (when, seq) < completion:
                completion = (when, seq)
        if completion[0] == _INFINITY and next_arrival == _INFINITY:
            # Unreachable by construction: a non-empty queue implies a
            # non-empty running set (an empty fleet always admits).
            raise ConfigError("fleet event loop deadlocked")
        if completion[0] <= next_arrival:
            when, seq = completion
            advance(when)
            run = running.pop(seq)
            run.work = 0.0
            finalize(seq, run, when)
        else:
            advance(next_arrival)
            seq = next_index
            next_index += 1
            if policy.capped:
                queue.append(seq)
            else:
                start(seq, next_arrival)
        if policy.capped:
            admit(last_ns)
            if policy.reallocates:
                _tail_reallocate(
                    running, config.power_cap_w, last_ns, arrivals_ns,
                    baselines,
                )
        power = sum([run.powers[run.cand] for run in running.values()])
        peak_power_w = max(peak_power_w, power)
        peak_concurrency = max(peak_concurrency, len(running))
        if policy.capped and len(running) >= 2 and power > cap:
            cap_violations += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    assert all(row is not None for row in rows)
    slowdowns = [float(row["slowdown"]) for row in rows]
    misses = sum(1 for row in rows if row["sla_miss"])
    waits_ms = [
        (float(row["start_ns"]) - float(row["arrival_ns"])) * 1e-6
        for row in rows
    ]
    energy_j = sum(float(row["energy_j"]) for row in rows)
    baseline_energy_j = sum(
        profile.baseline_energy_j for profile in profiles
    )
    aggregate = {
        "energy_j": energy_j,
        "baseline_energy_j": baseline_energy_j,
        "energy_saving_vs_max": (
            1.0 - energy_j / baseline_energy_j if baseline_energy_j else 0.0
        ),
        "mean_slowdown": sum(slowdowns) / n,
        "p50_slowdown": percentile(slowdowns, 0.50),
        "p95_slowdown": percentile(slowdowns, 0.95),
        "p99_slowdown": percentile(slowdowns, 0.99),
        "sla_misses": misses,
        "sla_miss_rate": misses / n,
        "mean_queue_wait_ms": sum(waits_ms) / n,
        "makespan_ms": makespan_ns * 1e-6,
        "peak_power_w": peak_power_w,
        "peak_concurrency": peak_concurrency,
        "cap_violations": cap_violations,
        "solo_cap_overrides": solo_overrides,
    }

    oracle_runs = [
        profile.static_run(tenant.manager.tolerable_slowdown)
        for tenant, profile in zip(tenants, profiles)
    ]
    oracle_misses = sum(
        1
        for run, tenant in zip(oracle_runs, tenants)
        if run.slowdown > tenant.sla_slowdown + _SLA_ABS_EPS
    )
    oracle = {
        "energy_j": sum(run.energy_j for run in oracle_runs),
        "mean_slowdown": sum(run.slowdown for run in oracle_runs) / n,
        "sla_miss_rate": oracle_misses / n,
    }

    report = FleetReport(
        config=config.describe(),
        policy=config.policy,
        aggregate=aggregate,
        oracle=oracle,
        tenants=[dict(row) for row in rows],
        diagnostics=diagnostics,
    )
    if config.serve_workers > 0:
        from repro.fleet.serve_mode import validate_decision_streams

        report.serve = validate_decision_streams(
            store, tenants, workers=config.serve_workers
        )
    return report


def _plan_candidate(plan) -> Candidate:
    power = (
        plan.energy_j / (plan.duration_ns * 1e-9)
        if plan.duration_ns > 0
        else 0.0
    )
    return Candidate(
        freq_index=plan.freq_index,
        duration_ns=plan.duration_ns,
        power_w=power,
    )
