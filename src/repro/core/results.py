"""Simulation results.

A :class:`SimulationResult` is everything one engine run produced: the
aggregates plus the full per-instruction record stream that the
criticality analyses consume.  It lives only in the process that ran the
engine.  A :class:`RunSummary` is what the figures read from it -- the
counters, the Figure 5 breakdown, the Figure 6 event classes, the exact
LoC table, the Section 6 consumer statistics and the per-instruction
latencies -- and is what the workbench, the run cache, the lanes and the
distributed wire carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import MachineConfig
from repro.core.instruction import InFlight

if TYPE_CHECKING:  # pragma: no cover - telemetry sits above the core layer
    from repro.telemetry.recorder import TelemetryData


@dataclass
class IlpProfile:
    """Per-cycle (available ILP -> achieved ILP) accumulator (Figure 15)."""

    issued_sum: dict[int, int] = field(default_factory=dict)
    cycle_count: dict[int, int] = field(default_factory=dict)

    def record(self, available: int, issued: int) -> None:
        """Record one cycle with ``available`` ready and ``issued`` executed."""
        self.issued_sum[available] = self.issued_sum.get(available, 0) + issued
        self.cycle_count[available] = self.cycle_count.get(available, 0) + 1

    def record_idle(self, cycles: int) -> None:
        """Record ``cycles`` consecutive (0 available, 0 issued) cycles.

        Equivalent to ``cycles`` calls of ``record(0, 0)``; lets the
        event-driven simulator account for skipped idle stretches in bulk.
        """
        self.issued_sum[0] = self.issued_sum.get(0, 0)
        self.cycle_count[0] = self.cycle_count.get(0, 0) + cycles

    def achieved(self, available: int) -> float:
        """Mean instructions issued on cycles with ``available`` ready."""
        count = self.cycle_count.get(available, 0)
        if count == 0:
            return 0.0
        return self.issued_sum[available] / count

    def series(self, max_available: int | None = None) -> list[tuple[int, float]]:
        """(available, achieved) pairs sorted by available ILP."""
        keys = sorted(self.cycle_count)
        if max_available is not None:
            keys = [k for k in keys if k <= max_available]
        return [(k, self.achieved(k)) for k in keys]


@dataclass
class SimulationResult:
    """Everything a run produced."""

    config: MachineConfig
    records: list[InFlight]
    cycles: int
    mispredicted: frozenset[int]
    global_values: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    ilp_profile: IlpProfile | None = None
    steering_name: str = ""
    scheduler_name: str = ""
    # Optional observability payload (set by the experiment layer when a
    # job requests metrics).  Purely observational: two runs differing
    # only in telemetry have identical timing, and the differential
    # identity check (`results_identical`) ignores this field.
    telemetry: TelemetryData | None = None

    @property
    def instructions(self) -> int:
        """Number of committed instructions."""
        return len(self.records)

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        if not self.records:
            return 0.0
        return self.cycles / len(self.records)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return len(self.records) / self.cycles

    @property
    def global_values_per_instruction(self) -> float:
        """Cross-cluster value transfers per instruction (Section 2.1 stat)."""
        if not self.records:
            return 0.0
        return self.global_values / len(self.records)

    @property
    def total_contention_cycles(self) -> int:
        """Raw (not criticality-weighted) ready-but-not-issued cycles."""
        return sum(r.contention_cycles for r in self.records)


@dataclass(frozen=True)
class CpiBreakdown:
    """One run's CPI split across critical-path categories (Figure 5).

    ``attributed_cycles`` is what the critical-path walk attributed; the
    difference to the run's cycles is folded into ``execute``.
    """

    segments: dict[str, float]
    cpi: float
    attributed_cycles: int = 0

    def normalized(self, baseline_cpi: float) -> dict[str, float]:
        """Segments scaled so their sum is this run's CPI / baseline CPI."""
        if baseline_cpi <= 0:
            raise ValueError("baseline CPI must be positive")
        return {name: value / baseline_cpi for name, value in self.segments.items()}


@dataclass(frozen=True)
class ContentionEvents:
    """Figure 6a: critical-path contention stalls."""

    predicted_critical: int
    other: int

    @property
    def total(self) -> int:
        return self.predicted_critical + self.other


@dataclass(frozen=True)
class ForwardingEvents:
    """Figure 6b: critical-path forwarding delays by steering cause."""

    load_balance: int
    dyadic: int
    other: int

    @property
    def total(self) -> int:
        return self.load_balance + self.dyadic + self.other


@dataclass(frozen=True)
class ConsumerCriticalityStats:
    """The three Section 6 statistics."""

    # Fraction of dynamic values whose most-critical consumer PC matches the
    # statically dominant most-critical-consumer PC for that producer PC.
    statically_unique_fraction: float
    # Fraction of static consumers whose "was most critical" rate is extreme
    # (below 20% or above 80%) -- the bimodality measure.
    bimodal_fraction: float
    # Among values from critical producers with >= 2 consumers: fraction
    # whose most critical consumer is NOT the first consumer in fetch order.
    most_critical_not_first_fraction: float
    values_analyzed: int


@dataclass(frozen=True)
class RunSummary:
    """What every figure reads from one run.

    Its one per-instruction field is ``latencies``; gzipped, a summary is
    about 1 KB at 300 instructions and 1.6 KB at 12 000.  Built by
    :func:`repro.analysis.summary.summarize` in the process that holds
    the records.  Every analysis uses one set of chunked critical flags
    (:func:`~repro.criticality.critical_path.critical_flags`);
    ``breakdown`` keeps the whole-run walk of
    :func:`~repro.analysis.breakdown.cpi_breakdown`.  ``loc_by_pc`` and
    ``pc_counts`` share their keys, in first-seen order.
    """

    config: MachineConfig
    cycles: int
    instructions: int
    global_values: int
    l1_hits: int
    l1_misses: int
    steering_name: str
    scheduler_name: str
    ilp_profile: IlpProfile | None
    # Figures 5 and 14.
    breakdown: CpiBreakdown
    # Figure 6.
    lost_cycle_events: tuple[ContentionEvents, ForwardingEvents]
    # Figure 8 and the Section 4 study: exact LoC and dynamic count per PC.
    loc_by_pc: dict[int, float]
    pc_counts: dict[int, int]
    # Section 6.
    consumer_stats: ConsumerCriticalityStats
    # Per-instruction execution latency, for the list scheduler (Figure 2,
    # Section 4).
    latencies: tuple[int, ...]
    telemetry: TelemetryData | None = None

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def global_values_per_instruction(self) -> float:
        """Cross-cluster value transfers per instruction (Section 2.1 stat)."""
        return self.global_values / self.instructions if self.instructions else 0.0
