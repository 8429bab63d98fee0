"""A run's :class:`~repro.core.results.RunSummary`, built from its columns.

Every figure reads a small value derived from a run's critical path, so
:func:`repro.experiments.parallel.execute_job` summarizes each run right
after its engine returns, in the process that ran it, and only the
summary travels on.  The summary reads the run's
:class:`~repro.core.results.RunColumns` and the per-trace
:class:`TraceTables` that the trace memo builds once per trace.  It
equals what the record functions compute -- ``cpi_breakdown``,
``critical_flags``, ``classify_lost_cycle_events``, ``exact_loc_by_pc``
and ``consumer_criticality_stats`` -- which stay as the reference the
tests hold it to.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.core.instruction import SteerCause
from repro.core.rename import build_consumer_lists
from repro.core.results import (
    FIGURE5_SEGMENTS,
    ConsumerCriticalityStats,
    ContentionEvents,
    CpiBreakdown,
    ForwardingEvents,
    RunColumns,
    RunSummary,
    SimulationResult,
)
from repro.criticality.critical_path import CriticalPathResult, walk_columns

__all__ = ["TraceTables", "summarize"]

# The chunk of :func:`~repro.criticality.critical_path.critical_flags`.
CHUNK_SIZE = 2048

_LOAD_BALANCE_FULL = SteerCause.LOAD_BALANCE_FULL
_DYADIC = SteerCause.DYADIC


class TraceTables:
    """What a summary reads of a trace, the same for every run of it.

    * ``pcs``: each position's PC;
    * ``pc_counts``: dynamic count per PC, in first-seen order;
    * the Section 6 consumer table.  A value's *signature* is its
      producer's PC plus each consumer's PC and distance, in fetch order;
      ``signature_of[i]`` is position ``i``'s signature id (-1 for a
      value nobody reads) and ``signatures[id]`` is ``(producer_pc,
      consumer_pcs, distances, count)``.  Distances keep a consumer that
      reads one producer twice as two entries, as the record loop does.
    """

    __slots__ = ("pcs", "pc_counts", "signature_of", "signatures")

    def __init__(self, trace: Sequence, dependences: Sequence):
        pcs = [instr.pc for instr in trace]
        ids: dict[tuple, int] = {}
        counts: list[int] = []
        signature_of = [-1] * len(pcs)
        for i, consumers in enumerate(build_consumer_lists(dependences)):
            if not consumers:
                continue
            key = (pcs[i], tuple(pcs[c] for c in consumers), tuple(c - i for c in consumers))
            sid = ids.get(key)
            if sid is None:
                sid = ids[key] = len(counts)
                counts.append(0)
            counts[sid] += 1
            signature_of[i] = sid
        self.pcs = pcs
        self.pc_counts = dict(Counter(pcs))
        self.signature_of = signature_of
        self.signatures = [(*key, count) for key, count in zip(ids, counts)]


def summarize(result: SimulationResult) -> RunSummary:
    """Everything the figures read from ``result``, exactly as they compute it.

    One walk of the whole run gives the breakdown.  The event classes,
    the LoC table and the consumer statistics share the chunked critical
    set; a run of at most one chunk has one walk for both.
    """
    columns = result.columns
    tables = result.trace_tables or TraceTables(columns.trace, columns.dependences)
    instructions = result.instructions
    whole = walk_columns(columns, 0, instructions)
    critical = whole.critical_indices
    if instructions > CHUNK_SIZE:
        critical = set()
        for lo in range(0, instructions, CHUNK_SIZE):
            hi = min(lo + CHUNK_SIZE, instructions)
            critical |= walk_columns(columns, lo, hi).critical_indices
    hits = Counter(map(tables.pcs.__getitem__, critical))
    loc_by_pc = {pc: hits[pc] / count for pc, count in tables.pc_counts.items()}
    return RunSummary(
        config=result.config,
        cycles=result.cycles,
        instructions=instructions,
        global_values=result.global_values,
        l1_hits=result.l1_hits,
        l1_misses=result.l1_misses,
        steering_name=result.steering_name,
        scheduler_name=result.scheduler_name,
        ilp_profile=result.ilp_profile,
        breakdown=_breakdown(whole, result.cycles, instructions, result.cpi),
        lost_cycle_events=_lost_cycle_events(columns, critical),
        loc_by_pc=loc_by_pc,
        pc_counts=dict(tables.pc_counts),
        consumer_stats=_consumer_stats(tables, loc_by_pc, critical),
        latencies=tuple(columns.latency),
        telemetry=result.telemetry,
    )


def _breakdown(
    walk: CriticalPathResult, cycles: int, instructions: int, cpi: float
) -> CpiBreakdown:
    """``cpi_breakdown``'s arithmetic over a whole-run walk."""
    merged = walk.merged_for_figure5()
    segments = {name: merged.get(name, 0) / instructions for name in FIGURE5_SEGMENTS}
    residual = cycles - walk.attributed_cycles
    segments["execute"] += residual / instructions
    return CpiBreakdown(segments=segments, cpi=cpi, attributed_cycles=walk.attributed_cycles)


def _lost_cycle_events(
    columns: RunColumns, critical: set[int]
) -> tuple[ContentionEvents, ForwardingEvents]:
    """``classify_lost_cycle_events`` over the critical positions."""
    ready_t = columns.ready_time
    issue_t = columns.issue_time
    dispatch_t = columns.dispatch_time
    op_avail = columns.operand_avail
    predicted = columns.predicted_critical
    forwarded = columns.critical_operand_forwarded
    steer_cause = columns.steer_cause
    contention_critical = contention_other = 0
    fwd_load_balance = fwd_dyadic = fwd_other = 0
    for i in critical:
        ready = ready_t[i]
        if ready >= 0 and issue_t[i] > ready:
            if predicted[i]:
                contention_critical += 1
            else:
                contention_other += 1
        if forwarded[i]:
            avail = op_avail[i]
            if avail == ready and avail > dispatch_t[i] + 1:
                cause = steer_cause[i]
                if cause is _LOAD_BALANCE_FULL:
                    fwd_load_balance += 1
                elif cause is _DYADIC:
                    fwd_dyadic += 1
                else:
                    fwd_other += 1
    return (
        ContentionEvents(contention_critical, contention_other),
        ForwardingEvents(fwd_load_balance, fwd_dyadic, fwd_other),
    )


def _consumer_stats(
    tables: TraceTables, loc_by_pc: dict[int, float], critical: set[int]
) -> ConsumerCriticalityStats:
    """``consumer_criticality_stats``, one step per signature.

    Every value of one signature has the same most critical consumer:
    the first position of the maximal LoC, which is the record loop's
    earliest consumer on a tie.  All counts are integers, so the
    fractions are the record loop's to the bit.
    """
    critical_by_signature = Counter(map(tables.signature_of.__getitem__, critical))
    winners: dict[int, Counter] = defaultdict(Counter)
    consumer_wins: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    total_values = critical_multi_values = not_first = 0
    for sid, (producer_pc, consumer_pcs, distances, count) in enumerate(tables.signatures):
        locs = [loc_by_pc[pc] for pc in consumer_pcs]
        best = locs.index(max(locs))
        best_distance = distances[best]
        winners[producer_pc][consumer_pcs[best]] += count
        total_values += count
        for pc, distance in zip(consumer_pcs, distances):
            stats = consumer_wins[pc]
            stats[1] += count
            if distance == best_distance:
                stats[0] += count
        if len(distances) >= 2:
            critical_count = critical_by_signature[sid]
            critical_multi_values += critical_count
            if best_distance != distances[0]:
                not_first += critical_count
    dominant = sum(max(counter.values()) for counter in winners.values())
    extreme = sum(
        1 for wins, tries in consumer_wins.values() if not 0.2 < wins / tries < 0.8
    )
    return ConsumerCriticalityStats(
        statically_unique_fraction=dominant / total_values if total_values else 0.0,
        bimodal_fraction=extreme / len(consumer_wins) if consumer_wins else 0.0,
        most_critical_not_first_fraction=(
            not_first / critical_multi_values if critical_multi_values else 0.0
        ),
        values_analyzed=total_values,
    )
