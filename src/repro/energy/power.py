"""McPAT-like chip power model.

The paper models power with McPAT at 22 nm, reporting both static and
dynamic power (Section IV). We reproduce the structure McPAT's output
feeds into the energy manager:

* **core dynamic power** — ``C_eff · V² · f`` per core, weighted by an
  activity factor derived from the interval's performance counters
  (a stalled core clocks much less switching capacitance than a committing
  one);
* **static (leakage) power** — grows with supply voltage, always on;
* **uncore power** — L3 + interconnect at fixed clock, modeled constant;
* **DRAM power** — a constant background term plus an energy cost per
  DRAM access, estimated from the counters.

Default coefficients give a 4-core chip ≈ 65 W fully busy at 4 GHz and
≈ 10 W at 1 GHz mostly idle — Haswell-desktop-like numbers; the energy
*trends* (what the evaluation reproduces) depend only on the V²f shape
and the static/uncore floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.arch.counters import CounterSet
from repro.arch.specs import MachineSpec
from repro.energy.vftable import TechNode, VfTable


@dataclass(frozen=True)
class PowerModelConfig:
    """Coefficients of the chip power model."""

    #: Effective switching capacitance per core: W per (V² · GHz) at
    #: activity 1.0.
    core_ceff_w_per_v2_ghz: float = 3.3
    #: Leakage at nominal voltage (W per core at 1.0 V), linear in V.
    leakage_w_per_core_per_v: float = 1.9
    #: Constant uncore (L3, ring, memory controller) power in W.
    uncore_w: float = 3.0
    #: DRAM background power in W.
    dram_background_w: float = 2.0
    #: Energy per DRAM line access (nJ) — reads from miss chains, writes
    #: from store drains.
    dram_nj_per_access: float = 18.0
    #: Floor activity of a clocked but stalled core (clock tree, windows).
    idle_activity: float = 0.30
    #: Mean latency used to convert accumulated chain latency to access
    #: counts (ns per access).
    mean_access_ns: float = 60.0
    #: Stores per drained DRAM line (coalescing factor).
    stores_per_line: float = 8.0

    def __post_init__(self) -> None:
        for name in (
            "core_ceff_w_per_v2_ghz",
            "leakage_w_per_core_per_v",
            "uncore_w",
            "dram_background_w",
            "dram_nj_per_access",
            "mean_access_ns",
            "stores_per_line",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.idle_activity <= 1.0:
            raise ConfigError("idle_activity must be in [0, 1]")


def node_power_config(
    node: TechNode, base: PowerModelConfig = PowerModelConfig()
) -> PowerModelConfig:
    """Power coefficients scaled to a technology node.

    The model computes ``V²`` explicitly from the node's own voltage
    table, so the Lumos-style full-chip power factor is split: dynamic
    switching capacitance takes ``power_scale / vdd_scale²`` (what is
    left of the node's power scaling once its voltage drop is accounted
    for), leakage-per-volt takes ``power_scale / vdd_scale``, and the
    fixed uncore term takes the full factor. DRAM terms are off-chip and
    do not scale with the logic node.
    """
    dynamic = node.power_scale / (node.vdd_scale * node.vdd_scale)
    return replace(
        base,
        core_ceff_w_per_v2_ghz=base.core_ceff_w_per_v2_ghz * dynamic,
        leakage_w_per_core_per_v=(
            base.leakage_w_per_core_per_v * node.power_scale / node.vdd_scale
        ),
        uncore_w=base.uncore_w * node.power_scale,
    )


def _column(values: Sequence[float]) -> np.ndarray:
    """A per-interval scalar as a float64 column vector."""
    return np.array(values, dtype=np.float64)[:, None]


class PowerModel:
    """Computes chip power/energy for counter-characterized intervals."""

    def __init__(
        self,
        spec: MachineSpec,
        config: PowerModelConfig = PowerModelConfig(),
        vf_table: VfTable = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.vf = vf_table or VfTable(spec)

    # ------------------------------------------------------------------
    # Component powers
    # ------------------------------------------------------------------

    def static_power_w(self, freq_ghz: float) -> float:
        """Chip leakage power at the set point's voltage."""
        voltage = self.vf.voltage(freq_ghz)
        return self.config.leakage_w_per_core_per_v * voltage * self.spec.n_cores

    def core_dynamic_power_w(self, freq_ghz: float, activity: float) -> float:
        """All-core switching power at ``activity`` (0..1)."""
        voltage = self.vf.voltage(freq_ghz)
        return (
            self.config.core_ceff_w_per_v2_ghz
            * voltage
            * voltage
            * freq_ghz
            * activity
            * self.spec.n_cores
        )

    def max_power_w(self, freq_ghz: float) -> float:
        """Fully-active chip power (for reporting)."""
        return (
            self.core_dynamic_power_w(freq_ghz, 1.0)
            + self.static_power_w(freq_ghz)
            + self.config.uncore_w
            + self.config.dram_background_w
        )

    # ------------------------------------------------------------------
    # Interval energy
    # ------------------------------------------------------------------

    def interval_activity(
        self, counters: CounterSet, duration_ns: float, freq_ghz: float
    ) -> float:
        """Average per-core activity factor over an interval.

        A core contributes the idle floor while clocked, plus switching
        proportional to its commit rate (instructions per maximum-issue
        slot). Memory-stalled time therefore draws much less dynamic power
        than committing time — this is what makes lowering the frequency
        cheap for memory-bound phases.
        """
        if duration_ns <= 0:
            return 0.0
        capacity = self.spec.n_cores * duration_ns
        busy_fraction = min(counters.active_ns / capacity, 1.0)
        issue_slots = duration_ns * freq_ghz * self.spec.core.width
        commit_fraction = min(counters.insns / (issue_slots * self.spec.n_cores), 1.0)
        activity = (
            self.config.idle_activity * busy_fraction
            + (1.0 - self.config.idle_activity) * commit_fraction
        )
        return min(activity, 1.0)

    def dram_accesses(self, counters: CounterSet) -> float:
        """Estimated DRAM line accesses behind an interval's counters."""
        reads = counters.crit_ns / self.config.mean_access_ns
        writes = counters.stores / self.config.stores_per_line
        return reads + writes

    def interval_energy_j(
        self, counters: CounterSet, duration_ns: float, freq_ghz: float
    ) -> float:
        """Total chip + DRAM energy of one interval, in joules."""
        if duration_ns < 0:
            raise ConfigError(f"negative interval duration {duration_ns}")
        seconds = duration_ns * 1e-9
        activity = self.interval_activity(counters, duration_ns, freq_ghz)
        power = (
            self.core_dynamic_power_w(freq_ghz, activity)
            + self.static_power_w(freq_ghz)
            + self.config.uncore_w
            + self.config.dram_background_w
        )
        energy = power * seconds
        energy += self.dram_accesses(counters) * self.config.dram_nj_per_access * 1e-9
        return energy

    def interval_energies_j(
        self,
        counters: Sequence[CounterSet],
        durations: np.ndarray,
        freqs_ghz: Sequence[float],
    ) -> np.ndarray:
        """:meth:`interval_energy_j` over an ``(intervals × set points)``
        grid: ``durations[i, j]`` is interval ``i`` (``counters[i]``) at
        ``freqs_ghz[j]``.

        Every cell performs the scalar method's operations in the same
        order, so it equals ``interval_energy_j(counters[i],
        durations[i, j], freqs_ghz[j])`` bit for bit. ``min(x, 1.0)`` is
        spelled ``where(1.0 < x, 1.0, x)``, which keeps ``min``'s
        choice for every input.
        """
        durations = np.asarray(durations, dtype=np.float64)
        if bool((durations < 0).any()):
            raise ConfigError(
                f"negative interval duration {float(durations.min())}"
            )
        config = self.config
        n_cores = self.spec.n_cores
        active = _column([c.active_ns for c in counters])
        insns = _column([c.insns for c in counters])
        dram = _column([self.dram_accesses(c) for c in counters])
        freqs = np.asarray(freqs_ghz, dtype=np.float64)[None, :]
        voltages = [self.vf.voltage(freq) for freq in freqs_ghz]
        # Per set point: the dynamic-power factor up to ``activity`` and
        # the static power, in core_dynamic_power_w's operation order.
        dynamic = np.array(
            [
                config.core_ceff_w_per_v2_ghz * v * v * freq
                for v, freq in zip(voltages, freqs_ghz)
            ]
        )[None, :]
        static = np.array([self.static_power_w(freq) for freq in freqs_ghz])[
            None, :
        ]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            busy = active / (n_cores * durations)
            busy = np.where(1.0 < busy, 1.0, busy)
            issue_slots = durations * freqs * self.spec.core.width
            commit = insns / (issue_slots * n_cores)
            commit = np.where(1.0 < commit, 1.0, commit)
            activity = (
                config.idle_activity * busy
                + (1.0 - config.idle_activity) * commit
            )
        activity = np.where(1.0 < activity, 1.0, activity)
        activity = np.where(durations <= 0, 0.0, activity)
        power = (
            dynamic * activity * n_cores
            + static
            + config.uncore_w
            + config.dram_background_w
        )
        energy = power * (durations * 1e-9)
        energy += dram * config.dram_nj_per_access * 1e-9
        return energy
