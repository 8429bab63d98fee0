"""A run's :class:`~repro.core.results.RunSummary`, built from its records.

Every figure reads a small value derived from a run's critical path, so
:func:`repro.experiments.parallel.execute_job` summarizes each run right
after its engine returns, in the process that holds the records, and only
the summary travels on.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.breakdown import cpi_breakdown
from repro.analysis.consumers import consumer_criticality_stats, exact_loc_by_pc
from repro.analysis.events import classify_lost_cycle_events
from repro.core.results import RunSummary, SimulationResult
from repro.criticality.critical_path import critical_flags

__all__ = ["summarize"]


def summarize(result: SimulationResult) -> RunSummary:
    """Everything the figures read from ``result``, exactly as they compute it.

    The event classes, the LoC table and the consumer statistics share one
    set of chunked critical flags; the breakdown keeps its whole-run walk.
    """
    records = result.records
    flags = critical_flags(records)
    loc_by_pc = exact_loc_by_pc(records, flags)
    return RunSummary(
        config=result.config,
        cycles=result.cycles,
        instructions=result.instructions,
        global_values=result.global_values,
        l1_hits=result.l1_hits,
        l1_misses=result.l1_misses,
        steering_name=result.steering_name,
        scheduler_name=result.scheduler_name,
        ilp_profile=result.ilp_profile,
        breakdown=cpi_breakdown(result),
        lost_cycle_events=classify_lost_cycle_events(records, flags),
        loc_by_pc=loc_by_pc,
        pc_counts=dict(Counter(record.instr.pc for record in records)),
        consumer_stats=consumer_criticality_stats(records, loc_by_pc, flags=flags),
        latencies=tuple(record.latency for record in records),
        telemetry=result.telemetry,
    )
