"""Heterogeneous frequency domains: clusters of cores over one machine.

The paper's machine is homogeneous — four identical cores behind one
chip-wide DVFS domain. Modern parts group cores into *clusters* (big
cores and little cores, each cluster on its own voltage/frequency rail),
possibly fabricated at different effective technology points and fed by
an uncore whose own clock is a DVFS axis of its own ("Dim Silicon and
the Case for Improved DVFS Policies", PAPERS.md).

This module adds that axis without disturbing the timing substrate:

* :class:`ClusterSpec` — one cluster: which cores it owns, its own
  frequency ladder (a sub-range of the machine's DVFS grid), its
  technology node (:mod:`repro.energy.vftable`'s ITRS/conservative
  tables) and its uncore clock;
* :class:`ClusterTopology` — a machine's full partition into clusters,
  with validation (cores partition the machine, ladders stay on the
  machine's set-point grid) and JSON round-trips;
* :class:`ClusterDvfs` — the per-cluster frequency domains: the
  heterogeneous counterpart of :class:`~repro.arch.frequency.DvfsDomain`
  with the same ``frequency_of(core)`` surface the simulator times
  segments through, plus per-cluster transition accounting.

A single-cluster topology (:func:`homogeneous`) is the exact legacy
machine: same set points, same transition costs, same per-core
frequencies — pinned byte-identical by the hetero differential layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import check_frequency
from repro.common.validation import require
from repro.arch.specs import MachineSpec, haswell_i7_4770k


@dataclass(frozen=True)
class ClusterSpec:
    """One frequency domain: a named group of cores with its own ladder."""

    name: str
    #: Core ids of the parent machine this cluster owns.
    cores: Tuple[int, ...]
    min_freq_ghz: float = 1.0
    max_freq_ghz: float = 4.0
    freq_step_ghz: float = 0.125
    #: Technology node of this cluster's V/f table (45/32/22/16 nm;
    #: 45 nm is the unit-scaling baseline whose table is the legacy
    #: i7-4770K curve).
    node_nm: int = 45
    #: Node scaling assumption: ``"itrs"`` or ``"cons"``.
    node_scaling: str = "itrs"
    #: Uncore clock feeding this cluster's memory path, GHz.
    uncore_freq_ghz: float = 1.5

    def __post_init__(self) -> None:
        require(bool(self.name), "cluster name must be non-empty")
        require(len(self.cores) > 0, "cluster must own at least one core")
        require(
            len(set(self.cores)) == len(self.cores),
            f"cluster {self.name!r} lists a core twice",
        )
        check_frequency("min_freq_ghz", self.min_freq_ghz)
        check_frequency("max_freq_ghz", self.max_freq_ghz)
        check_frequency("freq_step_ghz", self.freq_step_ghz)
        check_frequency("uncore_freq_ghz", self.uncore_freq_ghz)
        require(
            self.max_freq_ghz >= self.min_freq_ghz,
            "max_freq_ghz must be >= min_freq_ghz",
        )
        if self.node_scaling not in ("itrs", "cons"):
            raise ConfigError(
                f"node_scaling must be 'itrs' or 'cons', "
                f"got {self.node_scaling!r}"
            )

    def frequencies(self) -> Tuple[float, ...]:
        """The cluster's DVFS set points, ascending (integer-step grid)."""
        steps = int(
            round((self.max_freq_ghz - self.min_freq_ghz) / self.freq_step_ghz)
        )
        return tuple(
            round(self.min_freq_ghz + i * self.freq_step_ghz, 6)
            for i in range(steps + 1)
        )

    def vf_table(self):
        """The cluster's node-scaled V/f table over its own ladder."""
        from repro.energy.vftable import NodeVfTable

        return NodeVfTable(
            node_nm=self.node_nm,
            scaling=self.node_scaling,
            min_freq_ghz=self.min_freq_ghz,
            max_freq_ghz=self.max_freq_ghz,
            freq_step_ghz=self.freq_step_ghz,
        )

    def supported_frequencies(self) -> Tuple[float, ...]:
        """Set points the node can actually power (Vth floor applied)."""
        return self.vf_table().set_points()

    def uncore_scale(self, spec: MachineSpec) -> float:
        """Non-scaling time multiplier vs. the machine's reference uncore.

        Memory/stall time is uncore-clocked: running the uncore at half
        the reference clock doubles it. A cluster at the reference uncore
        frequency scales by exactly 1.0.
        """
        return spec.uncore_freq_ghz / self.uncore_freq_ghz

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (exact round-trip via from_dict)."""
        return {
            "name": self.name,
            "cores": list(self.cores),
            "min_freq_ghz": self.min_freq_ghz,
            "max_freq_ghz": self.max_freq_ghz,
            "freq_step_ghz": self.freq_step_ghz,
            "node_nm": self.node_nm,
            "node_scaling": self.node_scaling,
            "uncore_freq_ghz": self.uncore_freq_ghz,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusterSpec":
        """Rebuild a cluster from :meth:`to_dict` output."""
        try:
            return cls(
                name=payload["name"],
                cores=tuple(int(core) for core in payload["cores"]),
                min_freq_ghz=float(payload["min_freq_ghz"]),
                max_freq_ghz=float(payload["max_freq_ghz"]),
                freq_step_ghz=float(payload["freq_step_ghz"]),
                node_nm=int(payload["node_nm"]),
                node_scaling=payload["node_scaling"],
                uncore_freq_ghz=float(payload["uncore_freq_ghz"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed ClusterSpec payload: {exc}") from exc


@dataclass(frozen=True)
class ClusterTopology:
    """A machine's partition into per-cluster frequency domains."""

    spec: MachineSpec
    clusters: Tuple[ClusterSpec, ...]

    def __post_init__(self) -> None:
        require(len(self.clusters) > 0, "topology needs at least one cluster")
        names = [cluster.name for cluster in self.clusters]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate cluster names in {names}")
        owned: List[int] = []
        for cluster in self.clusters:
            owned.extend(cluster.cores)
        if sorted(owned) != list(range(self.spec.n_cores)):
            raise ConfigError(
                f"clusters must partition cores 0..{self.spec.n_cores - 1}; "
                f"got {sorted(owned)}"
            )
        grid = set(self.spec.frequencies())
        for cluster in self.clusters:
            off_grid = [f for f in cluster.frequencies() if f not in grid]
            if off_grid:
                raise ConfigError(
                    f"cluster {cluster.name!r} ladder leaves the machine's "
                    f"DVFS grid at {off_grid[:3]} GHz"
                )

    @property
    def is_single_domain(self) -> bool:
        """True when one cluster spans the whole machine ladder (legacy)."""
        if len(self.clusters) != 1:
            return False
        only = self.clusters[0]
        return only.frequencies() == self.spec.frequencies()

    def cluster_of_core(self, core: int) -> ClusterSpec:
        """The cluster owning ``core`` (:class:`ConfigError` if none)."""
        for cluster in self.clusters:
            if core in cluster.cores:
                return cluster
        raise ConfigError(f"core {core} out of range")

    def cluster_named(self, name: str) -> ClusterSpec:
        """Lookup by cluster name."""
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise ConfigError(
            f"unknown cluster {name!r}; expected one of "
            f"{[c.name for c in self.clusters]}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding of the cluster layout.

        The timing substrate (:class:`MachineSpec`) is not serialized —
        topologies are layout descriptions over a spec the consumer
        already holds.
        """
        return {"clusters": [cluster.to_dict() for cluster in self.clusters]}

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], spec: MachineSpec = None
    ) -> "ClusterTopology":
        """Rebuild a topology from :meth:`to_dict` over ``spec``."""
        try:
            clusters = tuple(
                ClusterSpec.from_dict(raw) for raw in payload["clusters"]
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                f"malformed ClusterTopology payload: {exc}"
            ) from exc
        return cls(spec=spec or haswell_i7_4770k(), clusters=clusters)


class ClusterDvfs:
    """Per-cluster frequency domains with the DvfsDomain surface.

    One underlying :class:`~repro.arch.frequency.DvfsDomain` state per
    cluster: validation against the *cluster's* ladder, transition
    counting at the machine's transition cost, and ``frequency_of(core)``
    resolving through the owning cluster — the method the simulator's
    segment timing consults, so a heterogeneous topology drops in
    wherever a chip-wide domain did.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        initial_freqs_ghz: Optional[Dict[str, float]] = None,
    ) -> None:
        self.topology = topology
        self.spec = topology.spec
        initial_freqs_ghz = initial_freqs_ghz or {}
        self._set_points: Dict[str, Tuple[float, ...]] = {}
        self._current: Dict[str, float] = {}
        self._owner: Dict[int, str] = {}
        for cluster in topology.clusters:
            self._set_points[cluster.name] = cluster.frequencies()
            initial = initial_freqs_ghz.get(cluster.name, cluster.max_freq_ghz)
            self._current[cluster.name] = self.validate(cluster.name, initial)
            for core in cluster.cores:
                self._owner[core] = cluster.name
        self.transitions = 0
        self.transition_time_ns = 0.0

    def set_points(self, name: str) -> Tuple[float, ...]:
        """The named cluster's supported frequencies, ascending."""
        points = self._set_points.get(name)
        if points is None:
            raise ConfigError(f"unknown cluster {name!r}")
        return points

    @property
    def current_freqs_ghz(self) -> Dict[str, float]:
        """Cluster name -> current frequency."""
        return dict(self._current)

    def frequency_of(self, core: Optional[int]) -> float:
        """The frequency of ``core``'s cluster (fastest cluster if None)."""
        if core is None:
            return max(self._current.values())
        name = self._owner.get(core)
        if name is None:
            raise ConfigError(f"core {core} out of range")
        return self._current[name]

    def validate(self, name: str, freq_ghz: float) -> float:
        """The cluster set point equal to ``freq_ghz``, or raise."""
        for point in self.set_points(name):
            if abs(point - freq_ghz) < 5e-4:
                return point
        points = self.set_points(name)
        raise ConfigError(
            f"{freq_ghz} GHz is not a set point of cluster {name!r} "
            f"({points[0]}..{points[-1]} GHz)"
        )

    def set_cluster_frequency(self, name: str, freq_ghz: float) -> float:
        """Switch one cluster; return its transition cost in ns."""
        target = self.validate(name, freq_ghz)
        if target == self._current[name]:
            return 0.0
        self._current[name] = target
        self.transitions += 1
        self.transition_time_ns += self.spec.dvfs_transition_ns
        return self.spec.dvfs_transition_ns


def homogeneous(spec: MachineSpec = None, name: str = "all") -> ClusterTopology:
    """The legacy machine as a one-cluster topology (byte-identical twin)."""
    spec = spec or haswell_i7_4770k()
    return ClusterTopology(
        spec=spec,
        clusters=(
            ClusterSpec(
                name=name,
                cores=tuple(range(spec.n_cores)),
                min_freq_ghz=spec.min_freq_ghz,
                max_freq_ghz=spec.max_freq_ghz,
                freq_step_ghz=spec.freq_step_ghz,
                node_nm=45,
                node_scaling="itrs",
                uncore_freq_ghz=spec.uncore_freq_ghz,
            ),
        ),
    )


def big_little(spec: MachineSpec = None) -> ClusterTopology:
    """A big.LITTLE split of the quad-core machine.

    Two 22 nm big cores keep the full 1-4 GHz ladder at the reference
    uncore clock; two 16 nm (conservative-scaled) little cores top out at
    2 GHz behind a half-speed uncore — the dim-silicon configuration the
    hetero experiments sweep against the homogeneous baseline.
    """
    spec = spec or haswell_i7_4770k()
    half = max(1, spec.n_cores // 2)
    return ClusterTopology(
        spec=spec,
        clusters=(
            ClusterSpec(
                name="big",
                cores=tuple(range(half)),
                min_freq_ghz=spec.min_freq_ghz,
                max_freq_ghz=spec.max_freq_ghz,
                freq_step_ghz=spec.freq_step_ghz,
                node_nm=22,
                node_scaling="itrs",
                uncore_freq_ghz=spec.uncore_freq_ghz,
            ),
            ClusterSpec(
                name="little",
                cores=tuple(range(half, spec.n_cores)),
                min_freq_ghz=spec.min_freq_ghz,
                max_freq_ghz=min(2.0, spec.max_freq_ghz),
                freq_step_ghz=spec.freq_step_ghz,
                node_nm=16,
                node_scaling="cons",
                uncore_freq_ghz=spec.uncore_freq_ghz / 2.0,
            ),
        ),
    )
