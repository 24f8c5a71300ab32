"""The paper's claims as executable predicates over the figures' numbers.

The paper's results are orderings and bands: M+CRIT errs more than COOP
and DEP, +BURST helps every model, across-epoch CTP beats per-epoch, and
the energy manager saves energy at a bounded slowdown. Each
:class:`Claim` names its source figure, carries its band as written,
and reads only numbers the figure drivers already compute —
:func:`repro.experiments.fig3.collect`,
:func:`repro.experiments.fig4.collect`,
:func:`repro.experiments.sequential.collect` and the runner's fixed and
managed runs — so after those figures a ``claims`` run simulates
nothing. ``repro-experiments claims`` prints one pass/FAIL row per claim
and exits 1 when any fails.

Every claim holds at ``REPRO_SCALE=0.05`` and at the paper's full scale
(1.0). At 0.02 the Figure 6 and Figure 7 bands do not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Sequence, Tuple

from repro.common.units import ns_to_ms
from repro.energy.static_oracle import static_optimal
from repro.experiments import (
    fig1,
    fig3,
    fig4,
    fig6,
    fig7,
    sequential,
    table1,
    table2,
)
from repro.experiments.report import ExperimentResult, mean, pct_abs
from repro.experiments.runner import ExperimentRunner
from repro.workloads.dacapo import TABLE1_EXPECTED

#: The drivers whose numbers the claims read.
_SOURCES = (table1, table2, sequential, fig1, fig3, fig4, fig6, fig7)

_SIX_MODELS = ("M+CRIT", "M+CRIT+BURST", "COOP", "COOP+BURST", "DEP", "DEP+BURST")
_SEQUENTIAL = ("stall", "leading-loads", "crit")

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}


def _holds(op: str, *values: float) -> Tuple[str, bool]:
    """``values[0] op values[1] op ...``, rendered and evaluated."""
    test = _OPS[op]
    text = f" {op} ".join(f"{value:.4f}" for value in values)
    return text, all(test(a, b) for a, b in zip(values, values[1:]))


def _every(op: str, lefts: Sequence[float], rights: Sequence[float]):
    """``left op right`` for every pair."""
    checks = [_holds(op, a, b) for a, b in zip(lefts, rights)]
    return ", ".join(text for text, _ in checks), all(ok for _, ok in checks)


def _printed(error: float) -> float:
    """An error as its figure prints it (``12.3%``): the precision the
    Figure 1 and Figure 4 bands were set against."""
    return float(pct_abs(error).rstrip("%")) / 100.0


class Facts:
    """The figures' numbers, each computed on first use via the runner."""

    def __init__(self, runner: ExperimentRunner) -> None:
        self.runner = runner
        self.config = runner.config

    @cached_property
    def fig3_errors(self) -> fig3.Fig3Data:
        return fig3.collect(self.runner)

    @cached_property
    def fig4_means(self) -> List[float]:
        """MEAN |err| row: 1->4 across, per-epoch; 4->1 across, per-epoch."""
        errors = fig4.collect(self.runner)
        return [_printed(m) for m in fig4.mean_abs_columns(errors)]

    @cached_property
    def sequential(self):
        return sequential.collect()

    @cached_property
    def table2_text(self) -> str:
        return table2.run().to_text()

    def table1_deviation(self) -> float:
        """Largest ``abs(simulated_ms / paper_ms - 1)`` over Table I."""
        deviations = []
        for name in self.config.benchmarks:
            fixed = self.runner.fixed_run(name, 1.0)
            simulated_ms = float(f"{ns_to_ms(fixed.total_ns):.0f}")
            paper_ms = TABLE1_EXPECTED[name].exec_time_ms * self.config.scale
            deviations.append(abs(simulated_ms / paper_ms - 1))
        return max(deviations)

    def err(self, bench: str, model: str) -> float:
        return abs(self.sequential[bench][model])

    def fig1(self, model: str) -> List[float]:
        """Figure 1's series for ``model``, one value per upward target."""
        return [
            _printed(self.fig3_errors.mean_abs_at("up", model, target))
            for target in self.config.targets_up_ghz
        ]

    def up(self, model: str) -> float:
        return self.fig3_errors.mean_abs_at("up", model, 4.0)

    def down(self, model: str) -> float:
        return self.fig3_errors.mean_abs_at("down", model, 1.0)

    def group_saving(self, threshold: float, memory: bool) -> float:
        names = (
            self.config.memory_intensive if memory
            else self.config.compute_intensive
        )
        savings = []
        for name in names:
            baseline = self.runner.fixed_run(name, 4.0)
            managed = self.runner.managed_run(name, threshold)
            savings.append(1.0 - managed.energy_j / baseline.energy_j)
        return mean(savings)

    def max_slowdown(self, threshold: float) -> float:
        slowdowns = []
        for name in self.config.benchmarks:
            managed = self.runner.managed_run(name, threshold)
            baseline = self.runner.fixed_run(name, 4.0)
            slowdowns.append(managed.total_ns / baseline.total_ns - 1.0)
        return max(slowdowns)

    def fig7_mean_delta(self, threshold: float) -> float:
        runner = self.runner
        deltas = []
        for name in self.config.memory_intensive:
            baseline = runner.fixed_run(name, 4.0)
            sweep = {
                f: (runner.fixed_run(name, f).total_ns,
                    runner.fixed_run(name, f).energy_j)
                for f in self.config.static_freqs_ghz
            }
            oracle = static_optimal(sweep, threshold, max_freq_ghz=4.0)
            managed = runner.managed_run(name, threshold)
            dynamic = 1.0 - managed.energy_j / baseline.energy_j
            deltas.append(dynamic - oracle.energy_saving)
        return mean(deltas)


@dataclass(frozen=True)
class Claim:
    """One claim: ``check`` returns the evaluated band and whether it holds."""

    #: ``"<source figure>: <what it says>"``.
    name: str
    band: str
    check: Callable[[Facts], Tuple[str, bool]]


_TABLE2_PARAMETERS = ("4 cores", "125 MHz", "32 KB", "4 MB", "LRU")

CLAIMS: Tuple[Claim, ...] = (
    # Shape checks: every benchmark present, simulated execution times
    # within 25% of the (scaled) paper values.
    Claim("Table I: every benchmark present", "names == list(TABLE1_EXPECTED)",
          lambda f: (f"{len(f.config.benchmarks)} of {len(TABLE1_EXPECTED)} in order",
                     list(f.config.benchmarks) == list(TABLE1_EXPECTED))),
    Claim("Table I: execution times within 25% of the paper",
          "abs(simulated_ms / paper_ms - 1) < 0.25",
          lambda f: _holds("<", f.table1_deviation(), 0.25)),
    Claim("Table II: the paper's parameters listed",
          'each of "4 cores", "125 MHz", "32 KB", "4 MB", "LRU" in text',
          lambda f: (f"{sum(p in f.table2_text for p in _TABLE2_PARAMETERS)} of 5",
                     all(p in f.table2_text for p in _TABLE2_PARAMETERS))),
    # compute: everyone exact.
    Claim("Sec II.A: compute, every model exact",
          'err("compute", model) < 0.01 for stall, leading-loads, crit',
          lambda f: _holds("<", max(f.err("compute", m) for m in _SEQUENTIAL), 0.01)),
    # streaming: uniform latency -> leading loads close to CRIT.
    Claim("Sec II.A: streaming, leading loads close to CRIT",
          'abs(err("streaming", "leading-loads") - err("streaming", "crit")) < 0.08',
          lambda f: _holds("<", abs(f.err("streaming", "leading-loads")
                                    - f.err("streaming", "crit")), 0.08)),
    # pointer chase: leading loads badly under-counts deep chains.
    Claim("Sec II.A: pointer chase, leading loads under-counts",
          'err("pointer_chase", "leading-loads") > err("pointer_chase", "crit") + 0.05',
          lambda f: _holds(">", f.err("pointer_chase", "leading-loads"),
                           f.err("pointer_chase", "crit") + 0.05)),
    # bank conflicts: CRIT stays accurate where others drift.
    Claim("Sec II.A: bank conflicts, CRIT holds",
          'err("bank_conflicts", "crit") <= err("bank_conflicts", "stall") + 0.01',
          lambda f: _holds("<=", f.err("bank_conflicts", "crit"),
                           f.err("bank_conflicts", "stall") + 0.01)),
    # store heavy: every load-based model misses badly; +BURST repairs it.
    Claim("Sec II.A: store heavy, CRIT misses badly",
          'err("store_heavy", "crit") > 0.15',
          lambda f: _holds(">", f.err("store_heavy", "crit"), 0.15)),
    Claim("Sec II.A: store heavy, CRIT+BURST repairs it",
          'err("store_heavy", "crit+burst") < 0.05',
          lambda f: _holds("<", f.err("store_heavy", "crit+burst"), 0.05)),
    # mixed: +BURST strictly improves on CRIT.
    Claim("Sec II.A: mixed, +BURST improves on CRIT",
          'err("mixed", "crit+burst") < err("mixed", "crit")',
          lambda f: _holds("<", f.err("mixed", "crit+burst"), f.err("mixed", "crit"))),
    # At every target, DEP+BURST beats M+CRIT; errors grow with distance.
    Claim("Fig 1: DEP+BURST beats M+CRIT at every target", "d < m for every target",
          lambda f: _every("<", f.fig1("DEP+BURST"), f.fig1("M+CRIT"))),
    Claim("Fig 1: M+CRIT error grows with distance", "mcrit == sorted(mcrit)",
          lambda f: _holds("<=", *f.fig1("M+CRIT"))),
    # Headline: M+CRIT is badly wrong at 4 GHz, DEP+BURST is single-digit.
    Claim("Fig 1: M+CRIT badly wrong at 4 GHz", "mcrit[-1] > 0.12",
          lambda f: _holds(">", f.fig1("M+CRIT")[-1], 0.12)),
    Claim("Fig 1: DEP+BURST single-digit at 4 GHz", "depburst[-1] < 0.10",
          lambda f: _holds("<", f.fig1("DEP+BURST")[-1], 0.10)),
    # Paper ordering at the farthest target (4 GHz):
    # M+CRIT worst, BURST helps every model, DEP+BURST best.
    Claim("Fig 3(a): BURST helps DEP", 'mean("DEP+BURST") < mean("DEP")',
          lambda f: _holds("<", f.up("DEP+BURST"), f.up("DEP"))),
    Claim("Fig 3(a): BURST helps COOP", 'mean("COOP+BURST") < mean("COOP")',
          lambda f: _holds("<", f.up("COOP+BURST"), f.up("COOP"))),
    Claim("Fig 3(a): BURST helps M+CRIT", 'mean("M+CRIT+BURST") < mean("M+CRIT")',
          lambda f: _holds("<", f.up("M+CRIT+BURST"), f.up("M+CRIT"))),
    Claim("Fig 3(a): DEP beats M+CRIT", 'mean("DEP") < mean("M+CRIT")',
          lambda f: _holds("<", f.up("DEP"), f.up("M+CRIT"))),
    Claim("Fig 3(a): COOP beats M+CRIT", 'mean("COOP") < mean("M+CRIT")',
          lambda f: _holds("<", f.up("COOP"), f.up("M+CRIT"))),
    Claim("Fig 3(a): DEP+BURST best",
          'mean("DEP+BURST") == min(mean(m) for m in six models)',
          lambda f: _holds("==", f.up("DEP+BURST"), min(f.up(m) for m in _SIX_MODELS))),
    # Bands: M+CRIT large (paper 27%), DEP+BURST single-digit (paper 6%).
    Claim("Fig 3(a): M+CRIT large", 'mean("M+CRIT") > 0.12',
          lambda f: _holds(">", f.up("M+CRIT"), 0.12)),
    Claim("Fig 3(a): DEP+BURST single-digit", 'mean("DEP+BURST") < 0.10',
          lambda f: _holds("<", f.up("DEP+BURST"), 0.10)),
    # Downward prediction errors are larger than upward ones (the paper's
    # scaling-component multiplication argument) and keep the ordering.
    Claim("Fig 3(b): M+CRIT errs more downward than upward",
          'mean("M+CRIT") > data.mean_abs_at("up", "M+CRIT", 4.0)',
          lambda f: _holds(">", f.down("M+CRIT"), f.up("M+CRIT"))),
    Claim("Fig 3(b): DEP+BURST < DEP < M+CRIT",
          'mean("DEP+BURST") < mean("DEP") < mean("M+CRIT")',
          lambda f: _holds("<", f.down("DEP+BURST"), f.down("DEP"), f.down("M+CRIT"))),
    Claim("Fig 3(b): BURST helps M+CRIT", 'mean("M+CRIT+BURST") < mean("M+CRIT")',
          lambda f: _holds("<", f.down("M+CRIT+BURST"), f.down("M+CRIT"))),
    Claim("Fig 3(b): BURST helps COOP", 'mean("COOP+BURST") < mean("COOP")',
          lambda f: _holds("<", f.down("COOP+BURST"), f.down("COOP"))),
    # Bands: paper reports 70% for M+CRIT and 8% for DEP+BURST.
    Claim("Fig 3(b): M+CRIT large", 'mean("M+CRIT") > 0.25',
          lambda f: _holds(">", f.down("M+CRIT"), 0.25)),
    Claim("Fig 3(b): DEP+BURST within band", 'mean("DEP+BURST") < 0.16',
          lambda f: _holds("<", f.down("DEP+BURST"), 0.16)),
    # Algorithm 1's delta counters never hurt (per-epoch is an upper bound
    # on predicted time) and clearly help where CTP errors compound — the
    # 4 GHz -> 1 GHz direction, exactly where the paper's gap is largest.
    Claim("Fig 4: across-epoch beats per-epoch, 4->1", "down_across < down_per",
          lambda f: _holds("<", f.fig4_means[2], f.fig4_means[3])),
    Claim("Fig 4: across-epoch single-digit, 1->4", "up_across < 0.10",
          lambda f: _holds("<", f.fig4_means[0], 0.10)),
    Claim("Fig 4: across-epoch within band, 4->1", "down_across < 0.16",
          lambda f: _holds("<", f.fig4_means[2], 0.16)),
    # Shape: memory-intensive group saves substantially (paper 13%/19%),
    # compute-intensive much less; wider threshold saves more; achieved
    # slowdowns stay within ~1.5x of the bound.
    Claim("Fig 6: memory group saving at 5%", "0.06 < save_mem_5 < 0.20",
          lambda f: _holds("<", 0.06, f.group_saving(0.05, True), 0.20)),
    Claim("Fig 6: memory group saving at 10%", "0.12 < save_mem_10 < 0.27",
          lambda f: _holds("<", 0.12, f.group_saving(0.10, True), 0.27)),
    Claim("Fig 6: wider threshold saves more", "save_mem_10 > save_mem_5",
          lambda f: _holds(">", f.group_saving(0.10, True),
                           f.group_saving(0.05, True))),
    Claim("Fig 6: compute group saves much less", "save_cpu_10 < save_mem_10 / 2",
          lambda f: _holds("<", f.group_saving(0.10, False),
                           f.group_saving(0.10, True) / 2)),
    Claim("Fig 6: every slowdown within ~1.5x of the 5% bound",
          "slowdown <= threshold * 1.5 + 0.01",
          lambda f: _holds("<=", f.max_slowdown(0.05), 0.05 * 1.5 + 0.01)),
    Claim("Fig 6: every slowdown within ~1.5x of the 10% bound",
          "slowdown <= threshold * 1.5 + 0.01",
          lambda f: _holds("<=", f.max_slowdown(0.10), 0.10 * 1.5 + 0.01)),
    # Shape: the dynamic manager is on par with the static-optimal oracle
    # (paper: parity for compute-intensive, slightly better for
    # memory-intensive). We accept a small band around parity.
    Claim("Fig 7: dynamic on par with static-optimal at 5%",
          "-0.05 < mean_delta < 0.08",
          lambda f: _holds("<", -0.05, f.fig7_mean_delta(0.05), 0.08)),
    Claim("Fig 7: dynamic on par with static-optimal at 10%",
          "-0.05 < mean_delta < 0.08",
          lambda f: _holds("<", -0.05, f.fig7_mean_delta(0.10), 0.08)),
)


def work(config):
    """The union of the source drivers' grids: claims add no simulation."""
    items = set()
    for source in _SOURCES:
        items.update(source.work(config))
    return sorted(items)


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Evaluate every claim; the result is ``failed`` if any does not hold."""
    facts = Facts(runner)
    result = ExperimentResult(
        experiment_id="Claims",
        title="The paper's claims over the figures' numbers",
        headers=["claim", "band", "value", "pass/FAIL"],
        notes=f"evaluated at REPRO_SCALE={runner.config.scale}",
    )
    for claim in CLAIMS:
        value, holds = claim.check(facts)
        result.rows.append(
            (claim.name, claim.band, value, "pass" if holds else "FAIL")
        )
        result.failed = result.failed or not holds
    return result
