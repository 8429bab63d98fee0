"""Simulation results.

A :class:`SimulationResult` is everything one engine run produced: the
aggregates plus the per-instruction state, as records or as columns
(:class:`RunColumns`).  It lives only in the process that ran the
engine.  A :class:`RunSummary` is what the figures read from it -- the
counters, the Figure 5 breakdown, the Figure 6 event classes, the exact
LoC table, the Section 6 consumer statistics and the per-instruction
latencies -- and is what the workbench, the run cache, the lanes and the
distributed wire carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

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


# The InFlight slots a run's columns hold, one sequence each.  ``instr`` and
# ``deps`` come from the trace, ``index`` is the position, and every run
# ends with empty waiter lists, so those four are not columns.
COLUMN_FIELDS = tuple(
    name for name in InFlight.__slots__ if name not in ("instr", "deps", "index", "waiters")
)
_COLUMNS = attrgetter(*COLUMN_FIELDS)


class RunColumns:
    """One run's per-instruction state as columns indexed by trace position.

    One sequence per :data:`COLUMN_FIELDS` slot of
    :class:`~repro.core.instruction.InFlight`, plus the ``trace`` and its
    ``dependences``.  A ``forwarded_to_clusters`` cell may be ``None`` for
    a value that was never forwarded.  A column may be shared with the
    engine's per-trace state (the batched engine's frozen prediction
    columns), so callers read columns and never write them.
    """

    __slots__ = ("trace", "dependences", *COLUMN_FIELDS)

    def __init__(self, trace: Sequence, dependences: Sequence, **columns: Sequence):
        self.trace = trace
        self.dependences = dependences
        for name in COLUMN_FIELDS:
            setattr(self, name, columns[name])

    @classmethod
    def from_records(cls, records: Sequence[InFlight]) -> "RunColumns":
        """Transpose ``records``, one field at a time (the cells are shared).

        Field by field, the transposition holds no per-record tuples, so
        it needs no memory beyond the columns it returns.
        """
        return cls(
            list(map(attrgetter("instr"), records)),
            list(map(attrgetter("deps"), records)),
            **{name: list(map(attrgetter(name), records)) for name in COLUMN_FIELDS},
        )

    def to_records(self) -> list[InFlight]:
        """One :class:`~repro.core.instruction.InFlight` per position.

        Every producer's waiter list drains at its issue, so a finished
        run's records have empty ``waiters``.
        """
        records = []
        for instr, deps, *values in zip(self.trace, self.dependences, *_COLUMNS(self)):
            record = InFlight(instr, deps)
            for name, value in zip(COLUMN_FIELDS, values):
                setattr(record, name, value)
            if record.forwarded_to_clusters is None:
                record.forwarded_to_clusters = {}
            records.append(record)
        return records


class SimulationResult:
    """Everything a run produced.

    The per-instruction state has two views: ``records``, one
    :class:`~repro.core.instruction.InFlight` per instruction, and
    ``columns``, one :class:`RunColumns`.  An engine passes one of them;
    the first read of the other builds it from the first.  The event and
    reference engines pass records and the batched engine passes its
    columns, so a batched run that is only summarized builds no record.
    """

    def __init__(
        self,
        config: MachineConfig,
        cycles: int,
        mispredicted: frozenset[int],
        *,
        records: list[InFlight] | None = None,
        columns: RunColumns | None = None,
        global_values: int = 0,
        l1_hits: int = 0,
        l1_misses: int = 0,
        ilp_profile: IlpProfile | None = None,
        steering_name: str = "",
        scheduler_name: str = "",
        telemetry: TelemetryData | None = None,
    ):
        if (records is None) == (columns is None):
            raise ValueError("pass exactly one of records and columns")
        self.config = config
        self.cycles = cycles
        self.mispredicted = mispredicted
        self._records = records
        self._columns = columns
        self.global_values = global_values
        self.l1_hits = l1_hits
        self.l1_misses = l1_misses
        self.ilp_profile = ilp_profile
        self.steering_name = steering_name
        self.scheduler_name = scheduler_name
        # Optional observability payload (set by the experiment layer when
        # a job requests metrics).  Purely observational: two runs
        # differing only in telemetry have identical timing, and the
        # differential identity check (`results_identical`) ignores it.
        self.telemetry = telemetry
        # The per-trace tables the summary reads
        # (:class:`repro.analysis.summary.TraceTables`), attached from the
        # trace memo by the experiment layer; built from the run when absent.
        self.trace_tables = None

    @property
    def records(self) -> list[InFlight]:
        """One record per instruction, built from the columns on first read."""
        if self._records is None:
            self._records = self._columns.to_records()
        return self._records

    @property
    def columns(self) -> RunColumns:
        """The run's columns, transposed from the records on first read."""
        if self._columns is None:
            self._columns = RunColumns.from_records(self._records)
        return self._columns

    @property
    def instructions(self) -> int:
        """Number of committed instructions."""
        if self._records is not None:
            return len(self._records)
        return len(self._columns.latency)

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        instructions = self.instructions
        return self.cycles / instructions if instructions else 0.0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def global_values_per_instruction(self) -> float:
        """Cross-cluster value transfers per instruction (Section 2.1 stat)."""
        instructions = self.instructions
        return self.global_values / instructions if instructions else 0.0

    @property
    def total_contention_cycles(self) -> int:
        """Raw (not criticality-weighted) ready-but-not-issued cycles."""
        return sum(r.contention_cycles for r in self.records)


# Display order of Figure 5's stack segments (bottom to top).
FIGURE5_SEGMENTS = (
    "br_mispredict",
    "mem_latency",
    "fetch",
    "window",
    "execute",
    "contention",
    "fwd_delay",
)


@dataclass(frozen=True)
class CpiBreakdown:
    """One run's CPI split across critical-path categories (Figure 5).

    ``segments`` holds one value per :data:`FIGURE5_SEGMENTS` category.

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
    :func:`repro.analysis.summary.summarize` from the run's columns, in
    the process that ran the engine.  Every analysis uses one set of
    chunked critical flags, as
    :func:`~repro.criticality.critical_path.critical_flags` computes them;
    ``breakdown`` is the whole-run walk of
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
