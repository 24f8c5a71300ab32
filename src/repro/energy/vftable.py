"""Voltage/frequency operating points, parameterized by technology node.

The paper uses the voltage settings of Intel's Haswell i7-4770K with a
125 MHz frequency step (Section IV). Haswell's published operating range
runs from roughly 0.70 V near 800 MHz to about 1.10 V at 3.9-4 GHz; we
interpolate linearly between 0.725 V @ 1 GHz and 1.10 V @ 4 GHz, which
matches the table's published subset closely enough for energy-trend
reproduction. :class:`VfTable` is that default table, unchanged.

:class:`NodeVfTable` generalizes it across technology nodes. The node
data follow the Lumos exemplar (SNIPPETS.md 1: ITRS projections vs.
conservative scaling of supply voltage, frequency and power per node,
plus per-node threshold voltages): the Haswell-like voltage endpoints
are scaled by the node's Vdd factor, and a Vth-derived floor cuts the
bottom off the DVFS range — a supply must keep ``VTH_OVERDRIVE_V`` of
overdrive above threshold to close timing at GHz-class set points, so
aggressively Vdd-scaled (ITRS) deep nodes lose their lowest frequencies
while conservative scaling keeps the full ladder. This is the "dim
silicon" effect the heterogeneous experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.common.errors import ConfigError
from repro.common.units import check_frequency
from repro.arch.specs import MachineSpec


class VfTable:
    """Maps every DVFS set point to its supply voltage."""

    def __init__(
        self,
        spec: MachineSpec,
        v_at_min: float = 0.725,
        v_at_max: float = 1.10,
    ) -> None:
        if v_at_min <= 0 or v_at_max < v_at_min:
            raise ConfigError(
                f"invalid voltage range [{v_at_min}, {v_at_max}]"
            )
        self.spec = spec
        self.v_at_min = v_at_min
        self.v_at_max = v_at_max
        self._table: Dict[float, float] = {}
        f_lo, f_hi = spec.min_freq_ghz, spec.max_freq_ghz
        span = f_hi - f_lo
        for freq in spec.frequencies():
            alpha = (freq - f_lo) / span if span else 0.0
            self._table[freq] = v_at_min + alpha * (v_at_max - v_at_min)

    def voltage(self, freq_ghz: float) -> float:
        """Supply voltage (V) at set point ``freq_ghz``."""
        voltage = self._table.get(round(freq_ghz, 6))
        if voltage is None:
            # Tolerate float formatting noise only — anything further from
            # a set point is a caller bug.
            for point, volt in self._table.items():
                if abs(point - freq_ghz) < 1e-6:
                    return volt
            raise ConfigError(f"{freq_ghz} GHz is not a DVFS set point")
        return voltage

    def rows(self) -> Tuple[Tuple[float, float], ...]:
        """(frequency GHz, voltage V) pairs, ascending frequency."""
        return tuple(sorted(self._table.items()))


# ----------------------------------------------------------------------
# Technology nodes (Lumos-style ITRS / conservative scaling)
# ----------------------------------------------------------------------

#: Voltage endpoints of the unit-scaling baseline node (45 nm in the
#: Lumos normalization) — the legacy :class:`VfTable` curve. Every other
#: node scales these by its Vdd factor.
BASE_V_AT_MIN = 0.725
BASE_V_AT_MAX = 1.10
#: Overdrive a supply needs above the threshold voltage to sustain
#: GHz-class switching; set points whose scaled voltage would dip below
#: ``vth + VTH_OVERDRIVE_V`` are not supported at that node.
VTH_OVERDRIVE_V = 0.35


@dataclass(frozen=True)
class TechNode:
    """One technology node under one scaling assumption."""

    node_nm: int
    #: ``"itrs"`` (aggressive projections) or ``"cons"`` (conservative).
    scaling: str
    #: Supply-voltage factor relative to the 45 nm baseline.
    vdd_scale: float
    #: Achievable-frequency factor relative to the 45 nm baseline.
    freq_scale: float
    #: Full-chip power factor relative to the 45 nm baseline.
    power_scale: float
    #: Threshold voltage at this node, in volts.
    vth_v: float

    def __post_init__(self) -> None:
        if self.scaling not in ("itrs", "cons"):
            raise ConfigError(
                f"scaling must be 'itrs' or 'cons', got {self.scaling!r}"
            )
        for name in ("vdd_scale", "freq_scale", "power_scale", "vth_v"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def key(self) -> Tuple[int, str]:
        """Registry key of this node."""
        return (self.node_nm, self.scaling)

    @property
    def v_floor(self) -> float:
        """Vth-derived minimum usable supply voltage."""
        return self.vth_v + VTH_OVERDRIVE_V


#: (node_nm, scaling) -> TechNode, values from the Lumos exemplar's
#: ITRS/conservative projection tables (45 nm is the unit baseline).
TECH_NODES: Dict[Tuple[int, str], TechNode] = {
    node.key: node
    for node in (
        TechNode(45, "itrs", 1.00, 1.00, 1.00, 0.3201),
        TechNode(32, "itrs", 0.93, 1.09, 0.66, 0.2970),
        TechNode(22, "itrs", 0.84, 2.38, 0.54, 0.2673),
        TechNode(16, "itrs", 0.75, 3.21, 0.38, 0.2409),
        TechNode(45, "cons", 1.00, 1.00, 1.00, 0.3201),
        TechNode(32, "cons", 0.93, 1.10, 0.71, 0.2970),
        TechNode(22, "cons", 0.88, 1.19, 0.52, 0.2673),
        TechNode(16, "cons", 0.86, 1.25, 0.39, 0.2409),
    )
}

#: Node sizes available under both scaling assumptions.
NODE_SIZES: Tuple[int, ...] = (45, 32, 22, 16)


def get_tech_node(node_nm: int, scaling: str = "itrs") -> TechNode:
    """Registry lookup (:class:`ConfigError` with choices if unknown)."""
    node = TECH_NODES.get((node_nm, scaling))
    if node is None:
        raise ConfigError(
            f"unknown tech node ({node_nm} nm, {scaling!r}); expected "
            f"one of {sorted(TECH_NODES)}"
        )
    return node


def _grid(min_freq_ghz: float, max_freq_ghz: float, step_ghz: float):
    """The spec's integer-step frequency ladder for an arbitrary range."""
    check_frequency("min_freq_ghz", min_freq_ghz)
    check_frequency("freq_step_ghz", step_ghz)
    if check_frequency("max_freq_ghz", max_freq_ghz) < min_freq_ghz:
        raise ConfigError(
            f"invalid frequency range [{min_freq_ghz}, {max_freq_ghz}] "
            f"step {step_ghz}"
        )
    steps = int(round((max_freq_ghz - min_freq_ghz) / step_ghz))
    return tuple(
        round(min_freq_ghz + i * step_ghz, 6) for i in range(steps + 1)
    )


class NodeVfTable:
    """A :class:`VfTable` scaled to a technology node, with a Vth floor.

    Voltages are the reference endpoints scaled by the node's Vdd factor,
    interpolated linearly across the machine's (or an explicit) frequency
    ladder. Set points whose voltage falls below the node's Vth-derived
    floor are *unsupported*: they are excluded from :meth:`set_points`
    and :meth:`voltage` rejects them, which is how a node's DVFS range
    shrinks from the bottom (``f_min_ghz``) as Vdd scaling closes in on
    Vth.
    """

    def __init__(
        self,
        spec: MachineSpec = None,
        node_nm: int = 45,
        scaling: str = "itrs",
        *,
        min_freq_ghz: float = None,
        max_freq_ghz: float = None,
        freq_step_ghz: float = None,
    ) -> None:
        if spec is None and None in (min_freq_ghz, max_freq_ghz, freq_step_ghz):
            raise ConfigError(
                "NodeVfTable needs a MachineSpec or an explicit frequency range"
            )
        self.node = get_tech_node(node_nm, scaling)
        self.min_freq_ghz = (
            spec.min_freq_ghz if min_freq_ghz is None else min_freq_ghz
        )
        self.max_freq_ghz = (
            spec.max_freq_ghz if max_freq_ghz is None else max_freq_ghz
        )
        self.freq_step_ghz = (
            spec.freq_step_ghz if freq_step_ghz is None else freq_step_ghz
        )
        self.v_at_min = BASE_V_AT_MIN * self.node.vdd_scale
        self.v_at_max = BASE_V_AT_MAX * self.node.vdd_scale
        if self.v_at_max < self.node.v_floor:
            raise ConfigError(
                f"{self.node.node_nm} nm ({self.node.scaling}) cannot "
                f"sustain any set point: peak voltage {self.v_at_max:.3f} V "
                f"under the Vth floor {self.node.v_floor:.3f} V"
            )
        grid = _grid(self.min_freq_ghz, self.max_freq_ghz, self.freq_step_ghz)
        span = self.max_freq_ghz - self.min_freq_ghz
        self._table: Dict[float, float] = {}
        for freq in grid:
            alpha = (freq - self.min_freq_ghz) / span if span else 0.0
            voltage = self.v_at_min + alpha * (self.v_at_max - self.v_at_min)
            if voltage >= self.node.v_floor - 1e-9:
                self._table[freq] = voltage
        #: Lowest supported set point: the Vth-derived DVFS floor.
        self.f_min_ghz = min(self._table)
        #: Highest supported set point (always the range's top).
        self.f_max_ghz = max(self._table)

    def voltage(self, freq_ghz: float) -> float:
        """Supply voltage (V) at the *supported* set point ``freq_ghz``."""
        voltage = self._table.get(round(freq_ghz, 6))
        if voltage is None:
            for point, volt in self._table.items():
                if abs(point - freq_ghz) < 1e-6:
                    return volt
            raise ConfigError(
                f"{freq_ghz} GHz is not a supported set point at "
                f"{self.node.node_nm} nm ({self.node.scaling}); the node's "
                f"range is [{self.f_min_ghz}, {self.f_max_ghz}] GHz"
            )
        return voltage

    def set_points(self) -> Tuple[float, ...]:
        """Supported frequencies, ascending (the node-trimmed ladder)."""
        return tuple(sorted(self._table))

    def rows(self) -> Tuple[Tuple[float, float], ...]:
        """(frequency GHz, voltage V) pairs, ascending frequency."""
        return tuple(sorted(self._table.items()))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (exact round-trip via from_dict)."""
        return {
            "node_nm": self.node.node_nm,
            "scaling": self.node.scaling,
            "min_freq_ghz": self.min_freq_ghz,
            "max_freq_ghz": self.max_freq_ghz,
            "freq_step_ghz": self.freq_step_ghz,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "NodeVfTable":
        """Rebuild a table from :meth:`to_dict` output."""
        try:
            return cls(
                node_nm=int(payload["node_nm"]),
                scaling=payload["scaling"],
                min_freq_ghz=float(payload["min_freq_ghz"]),
                max_freq_ghz=float(payload["max_freq_ghz"]),
                freq_step_ghz=float(payload["freq_step_ghz"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed NodeVfTable payload: {exc}") from exc
