"""Classification of lost-cycle events on the critical path (Figure 6).

Figure 6a counts contention-stall events among critical instructions, split
by whether the stalled instruction had been *predicted* critical -- the
paper's point being that two-thirds of critical contention hits
correctly-predicted-critical instructions, i.e. the binary predictor is not
the problem; its coarseness is.

Figure 6b counts forwarding-delay events on the critical path, classified by
the steering cause recorded when the delayed consumer was steered:
``load_bal`` (the desired producer cluster was full, so the consumer was
load-balanced away), ``dyadic`` (producers on different clusters -- one had
to be remote) and ``other``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.instruction import InFlight, SteerCause
from repro.core.results import ContentionEvents, ForwardingEvents
from repro.criticality.critical_path import critical_flags

__all__ = ["ContentionEvents", "ForwardingEvents", "classify_lost_cycle_events"]


def classify_lost_cycle_events(
    records: Sequence[InFlight],
    flags: Sequence[bool] | None = None,
    chunk_size: int = 2048,
) -> tuple[ContentionEvents, ForwardingEvents]:
    """Count and classify critical-path stall events for one run."""
    if flags is None:
        flags = critical_flags(records, chunk_size=chunk_size)

    contention_critical = 0
    contention_other = 0
    fwd_load_balance = 0
    fwd_dyadic = 0
    fwd_other = 0

    for record, critical in zip(records, flags):
        if not critical:
            continue
        if record.contention_cycles > 0:
            if record.predicted_critical:
                contention_critical += 1
            else:
                contention_other += 1
        # A forwarding event counts only when the forwarded operand really
        # gated readiness (same condition the critical-path walk uses); a
        # remote operand that arrived before the instruction entered the
        # window cost nothing.
        operand_gated = (
            record.operand_avail == record.ready_time
            and record.operand_avail > record.dispatch_time + 1
        )
        if record.critical_operand_forwarded and operand_gated:
            cause = record.steer_cause
            if cause is SteerCause.LOAD_BALANCE_FULL:
                fwd_load_balance += 1
            elif cause is SteerCause.DYADIC:
                fwd_dyadic += 1
            else:
                fwd_other += 1

    return (
        ContentionEvents(contention_critical, contention_other),
        ForwardingEvents(fwd_load_balance, fwd_dyadic, fwd_other),
    )
