"""Producer-consumer criticality statistics (Section 6 in-text claims).

The paper justifies the feasibility of proactive load-balancing with three
trace observations:

1. about 80% of produced values have a *statically unique* most-critical
   consumer;
2. a static consumer either almost always or almost never is the most
   critical consumer of its producer's value (bimodal);
3. among critical producers with multiple consumers, over half do *not*
   have their most critical consumer first in fetch order.

These statistics are computed from a monolithic run: per-PC LoC values rank
consumers, consumer lists come from the dependence extraction.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.core.instruction import InFlight
from repro.core.rename import build_consumer_lists
from repro.core.results import ConsumerCriticalityStats
from repro.criticality.critical_path import critical_flags

__all__ = [
    "ConsumerCriticalityStats",
    "consumer_criticality_stats",
    "exact_loc_by_pc",
]


def consumer_criticality_stats(
    records: Sequence[InFlight],
    loc_by_pc: dict[int, float] | None = None,
    chunk_size: int = 2048,
    flags: Sequence[bool] | None = None,
) -> ConsumerCriticalityStats:
    """Compute the Section 6 statistics from one run's records.

    ``flags`` are the run's critical flags, computed with ``chunk_size``
    when not given.
    """
    if flags is None:
        flags = critical_flags(records, chunk_size=chunk_size)
    if loc_by_pc is None:
        loc_by_pc = exact_loc_by_pc(records, flags)

    pcs = [record.instr.pc for record in records]
    locs = [loc_by_pc.get(pc, 0.0) for pc in pcs]
    consumers = build_consumer_lists([r.deps for r in records])

    # Per producer PC: counts of which consumer PC was most critical.
    winner_by_producer_pc: dict[int, Counter] = defaultdict(Counter)
    # Per consumer PC: (times most critical, times a candidate).
    consumer_wins: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    multi_consumer_values = 0
    not_first = 0
    critical_multi_values = 0

    for i, consumer_list in enumerate(consumers):
        if not consumer_list:
            continue
        # The most critical consumer; the first in fetch order on a tie.
        best = consumer_list[0]
        if len(consumer_list) > 1:
            best = max(consumer_list, key=lambda c: (locs[c], -c))
        winner_by_producer_pc[pcs[i]][pcs[best]] += 1
        for c in consumer_list:
            stats = consumer_wins[pcs[c]]
            stats[1] += 1
            if c == best:
                stats[0] += 1
        if len(consumer_list) >= 2:
            multi_consumer_values += 1
            if flags[i]:
                critical_multi_values += 1
                if best != min(consumer_list):
                    not_first += 1

    total_values = sum(
        sum(counter.values()) for counter in winner_by_producer_pc.values()
    )
    dominant = sum(
        counter.most_common(1)[0][1] for counter in winner_by_producer_pc.values()
    )
    unique_fraction = dominant / total_values if total_values else 0.0

    extreme = 0
    for wins, tries in consumer_wins.values():
        rate = wins / tries
        if rate <= 0.2 or rate >= 0.8:
            extreme += 1
    bimodal = extreme / len(consumer_wins) if consumer_wins else 0.0

    not_first_fraction = (
        not_first / critical_multi_values if critical_multi_values else 0.0
    )
    return ConsumerCriticalityStats(
        statically_unique_fraction=unique_fraction,
        bimodal_fraction=bimodal,
        most_critical_not_first_fraction=not_first_fraction,
        values_analyzed=total_values,
    )


def exact_loc_by_pc(
    records: Sequence[InFlight], flags: Sequence[bool] | None = None
) -> dict[int, float]:
    """Exact per-PC likelihood of criticality from one run."""
    if flags is None:
        flags = critical_flags(records)
    hits: dict[int, int] = defaultdict(int)
    totals: dict[int, int] = defaultdict(int)
    for record, critical in zip(records, flags):
        totals[record.instr.pc] += 1
        if critical:
            hits[record.instr.pc] += 1
    return {pc: hits[pc] / totals[pc] for pc in totals}
