"""Machine configurations: the monolithic baseline and its clustered splits.

Table 1 defines the 8-wide monolithic machine (1x8w).  The clustered
machines divide its execution resources equally among the clusters
(Section 2.1): 2x4w, 4x2w and 8x1w.  Partial resources round up, so each
1-wide cluster keeps a memory port and a floating-point unit.

Beyond the paper, :class:`MachineConfig` also models *heterogeneous*
machines: ``clusters`` is a tuple of per-cluster :class:`ClusterConfig`
entries which may differ in geometry (a fat 4-wide cluster next to thin
2-wide ones), capability (``fp_ports=0`` builds an FP-less cluster) and
execution latency (``latency_overrides`` per op class, e.g. a cluster
whose multiplier is divider-slow).  A uniform machine is spelled
``clusters=(cluster,) * n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.frontend.fetch import FrontEndConfig
from repro.memory.cache import MemoryConfig
from repro.vm.isa import BASE_LATENCY, OpClass


def _normalize_latency_overrides(
    overrides: Mapping[object, int] | tuple[tuple[str, int], ...] | None,
) -> tuple[tuple[str, int], ...]:
    """Canonicalize latency overrides to a sorted ``((opclass, cycles), ...)``.

    Accepts a mapping (keys may be :class:`OpClass` members or their string
    values) or an already-normalized tuple of pairs.  Sorting makes two
    configs with the same overrides compare and hash equal regardless of
    the spelling order.
    """
    if not overrides:
        return ()
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    normalized = {}
    for key, latency in items:
        opclass = OpClass(key) if not isinstance(key, OpClass) else key
        latency = int(latency)
        if latency < 1:
            raise ValueError(f"latency override for {opclass.value} must be >= 1")
        normalized[opclass.value] = latency
    return tuple(sorted(normalized.items()))


@dataclass(frozen=True)
class ClusterConfig:
    """Issue resources (and optional latency quirks) of one cluster.

    ``fp_ports``/``mem_ports`` may be zero, modelling a cluster that
    simply lacks that functional unit; steering must then route those op
    classes elsewhere (the simulators redirect automatically).
    ``latency_overrides`` maps op-class names to execution latencies that
    replace the ISA-wide :data:`repro.vm.isa.BASE_LATENCY` on this
    cluster only.
    """

    issue_width: int
    int_ports: int
    fp_ports: int
    mem_ports: int
    window_size: int
    latency_overrides: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if min(self.issue_width, self.int_ports, self.window_size) <= 0:
            raise ValueError(f"cluster resources must be positive: {self}")
        if min(self.fp_ports, self.mem_ports) < 0:
            raise ValueError(f"cluster port counts cannot be negative: {self}")
        object.__setattr__(
            self,
            "latency_overrides",
            _normalize_latency_overrides(self.latency_overrides),
        )

    def ports_for(self, opclass: OpClass) -> int:
        """Number of issue ports usable by ``opclass``."""
        if opclass in (OpClass.LOAD, OpClass.STORE):
            return self.mem_ports
        if opclass is OpClass.FP:
            return self.fp_ports
        return self.int_ports

    def can_execute(self, opclass: OpClass) -> bool:
        """Whether this cluster has any port for ``opclass``."""
        return self.ports_for(opclass) > 0

    @property
    def latency_map(self) -> dict[str, int]:
        """Latency overrides as a plain ``{opclass-name: cycles}`` dict."""
        return dict(self.latency_overrides)

    def latency_for(self, opclass: OpClass) -> int:
        """Execution latency of ``opclass`` on this cluster."""
        for name, latency in self.latency_overrides:
            if name == opclass.value:
                return latency
        return BASE_LATENCY[opclass]


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine: front end, clustered core, memory.

    The core is ``clusters`` — one :class:`ClusterConfig` per cluster,
    indexed by cluster id everywhere in the simulators.  Uniform machines
    (every entry identical) behave exactly like the legacy single-shared-
    cluster model and keep the ``cluster`` property; heterogeneous
    machines must be addressed per index.
    """

    clusters: tuple[ClusterConfig, ...]
    # ``MachineSpec.from_config`` reads these defaults via
    # ``dataclasses.fields`` to decide which overrides a config carries.
    rob_size: int = 256
    dispatch_width: int = 8
    commit_width: int = 8
    forwarding_latency: int = 2
    # Global-bypass transfers per cycle, machine-wide.  None models the
    # paper's assumption of enough capacity for peak rates (Section 2.1);
    # a finite value enables the limited-bandwidth analysis the paper
    # defers ("beyond the scope of this paper").
    forwarding_bandwidth: int | None = None
    # None means the Table 1 default, filled in by ``__post_init__``.
    frontend: FrontEndConfig = None  # type: ignore[assignment]
    memory: MemoryConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if self.frontend is None:
            object.__setattr__(self, "frontend", FrontEndConfig())
        if self.memory is None:
            object.__setattr__(self, "memory", MemoryConfig())
        self._validate()

    def _validate(self) -> None:
        if not self.clusters:
            raise ValueError("need at least one cluster")
        for entry in self.clusters:
            if not isinstance(entry, ClusterConfig):
                raise TypeError(f"clusters entries must be ClusterConfig, got {entry!r}")
        if self.forwarding_latency < 0:
            raise ValueError("forwarding latency cannot be negative")
        if self.forwarding_bandwidth is not None and self.forwarding_bandwidth <= 0:
            raise ValueError("forwarding bandwidth must be positive or None")
        if self.rob_size < self.total_window_size:
            raise ValueError("ROB smaller than aggregate scheduling window")
        # Every op class must be executable somewhere, or any trace using
        # it would deadlock at issue.
        if not any(c.fp_ports > 0 for c in self.clusters):
            raise ValueError("no cluster has FP ports; FP ops could never issue")
        if not any(c.mem_ports > 0 for c in self.clusters):
            raise ValueError("no cluster has memory ports; loads could never issue")

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    @property
    def is_uniform(self) -> bool:
        """Whether every cluster has identical geometry and latencies."""
        first = self.clusters[0]
        return all(entry == first for entry in self.clusters[1:])

    @property
    def cluster(self) -> ClusterConfig:
        """The shared per-cluster geometry of a *uniform* machine.

        Heterogeneous machines have no single shared cluster; index
        ``clusters`` instead.
        """
        if not self.is_uniform:
            raise ValueError(
                f"machine {self.name!r} is heterogeneous; use .clusters[i]"
            )
        return self.clusters[0]

    @property
    def total_issue_width(self) -> int:
        """Aggregate issue width across clusters."""
        return sum(entry.issue_width for entry in self.clusters)

    @property
    def total_window_size(self) -> int:
        """Aggregate scheduling-window capacity."""
        return sum(entry.window_size for entry in self.clusters)

    @property
    def name(self) -> str:
        """Configuration name: paper-style ``4x2w`` when uniform, else
        a per-cluster width list like ``4w+2w+2w``."""
        if self.is_uniform:
            return f"{len(self.clusters)}x{self.clusters[0].issue_width}w"
        return "+".join(f"{entry.issue_width}w" for entry in self.clusters)


# Table 1 totals for the monolithic machine (public: the spec layer and
# out-of-tree geometry code reference them).
TOTAL_WIDTH = 8
TOTAL_INT = 8
TOTAL_FP = 4
TOTAL_MEM = 4
TOTAL_WINDOW = 128


def clustered_machine(
    num_clusters: int,
    forwarding_latency: int = 2,
    **overrides,
) -> MachineConfig:
    """Build the paper's ``num_clusters``-way split of the 8-wide machine.

    ``num_clusters`` must divide the 8-wide issue bandwidth; the paper's
    configurations are 1 (monolithic), 2, 4 and 8.  Partial per-cluster
    resources round up (Section 2.1, footnote 1).
    """
    if TOTAL_WIDTH % num_clusters != 0:
        raise ValueError(f"{num_clusters} clusters do not divide width {TOTAL_WIDTH}")
    cluster = ClusterConfig(
        issue_width=TOTAL_WIDTH // num_clusters,
        int_ports=max(1, math.ceil(TOTAL_INT / num_clusters)),
        fp_ports=max(1, math.ceil(TOTAL_FP / num_clusters)),
        mem_ports=max(1, math.ceil(TOTAL_MEM / num_clusters)),
        window_size=TOTAL_WINDOW // num_clusters,
    )
    return MachineConfig(
        clusters=(cluster,) * num_clusters,
        forwarding_latency=forwarding_latency,
        **overrides,
    )


def monolithic_machine(**overrides) -> MachineConfig:
    """The Table 1 baseline (1x8w).  Forwarding latency is irrelevant."""
    return clustered_machine(1, **overrides)


def heterogeneous_machine(
    clusters: tuple[ClusterConfig, ...] | list[ClusterConfig],
    forwarding_latency: int = 2,
    rob_size: int | None = None,
    **overrides,
) -> MachineConfig:
    """Build a machine from explicit per-cluster geometries.

    ``rob_size`` defaults to the larger of the legacy 256 and the
    aggregate window, so asymmetric splits never trip the ROB check.
    """
    clusters = tuple(clusters)
    if rob_size is None:
        rob_size = max(256, sum(entry.window_size for entry in clusters))
    return MachineConfig(
        clusters=clusters,
        forwarding_latency=forwarding_latency,
        rob_size=rob_size,
        **overrides,
    )


def _scaled_cluster(issue_width: int, **overrides) -> ClusterConfig:
    """A cluster scaled from Table 1 in proportion to its issue width."""
    fraction = TOTAL_WIDTH // issue_width
    defaults = dict(
        issue_width=issue_width,
        int_ports=max(1, math.ceil(TOTAL_INT / fraction)),
        fp_ports=max(1, math.ceil(TOTAL_FP / fraction)),
        mem_ports=max(1, math.ceil(TOTAL_MEM / fraction)),
        window_size=TOTAL_WINDOW // fraction,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def fat_thin_machine(forwarding_latency: int = 2, **overrides) -> MachineConfig:
    """The ``4w+2w+2w`` asymmetric split: one fat cluster, two thin ones.

    Total width and window match the 8-wide machine, so results compare
    directly against the paper's uniform splits.
    """
    return heterogeneous_machine(
        (_scaled_cluster(4), _scaled_cluster(2), _scaled_cluster(2)),
        forwarding_latency=forwarding_latency,
        **overrides,
    )


def fp_less_thin_machine(forwarding_latency: int = 2, **overrides) -> MachineConfig:
    """``4w+2w+2w`` where the thin clusters have no FP units.

    All FP work funnels to the fat cluster; integer/memory slices can
    still spread out.  Exercises capability-aware steering.
    """
    return heterogeneous_machine(
        (
            _scaled_cluster(4),
            _scaled_cluster(2, fp_ports=0),
            _scaled_cluster(2, fp_ports=0),
        ),
        forwarding_latency=forwarding_latency,
        **overrides,
    )


def slow_divider_machine(
    num_clusters: int = 2,
    forwarding_latency: int = 2,
    multiply_latency: int = 14,
    **overrides,
) -> MachineConfig:
    """A uniform split where the *last* cluster's multiplier is divider-slow.

    Geometry matches :func:`clustered_machine`; only the final cluster
    carries an ``int_mul`` latency override (default 2x the ISA's 7
    cycles, coreblocks-style multi-cycle divider).
    """
    base = clustered_machine(num_clusters, forwarding_latency, **overrides)
    shared = base.clusters[0]
    slow = ClusterConfig(
        issue_width=shared.issue_width,
        int_ports=shared.int_ports,
        fp_ports=shared.fp_ports,
        mem_ports=shared.mem_ports,
        window_size=shared.window_size,
        latency_overrides={OpClass.INT_MUL: multiply_latency},
    )
    return heterogeneous_machine(
        base.clusters[:-1] + (slow,),
        forwarding_latency=forwarding_latency,
        rob_size=base.rob_size,
        **overrides,
    )


# The cluster counts evaluated throughout the paper.
PAPER_CLUSTER_COUNTS = (2, 4, 8)
