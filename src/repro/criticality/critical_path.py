"""Critical-path extraction and lost-cycle attribution (Fields model).

The Fields et al. critical-path model gives every dynamic instruction three
nodes -- dispatch (D), execute-complete (E) and commit (C) -- connected by
the constraints that actually gated them: in-order dispatch, misprediction
redirects, ROB/window pressure, operand dataflow, issue contention and
in-order commit.  The critical path is the chain of last-arriving
constraints that determines total runtime.

Because the simulator records *which* constraint gated every event
(``dispatch_reason``, ``last_arriving_producer``, ``commit_reason``), the
path here is recovered by a deterministic backward walk rather than a
longest-path search, and every cycle of runtime is attributed to exactly one
category.  Section 3 of the paper defines the attribution rules:

* crossing clusters on a critical operand costs the forwarding latency
  (``fwd_delay``);
* critical execute cycles not explained by functional-unit latency,
  forwarding or memory are contention (``contention``);
* dispatch gated by a mispredicted branch is ``br_mispredict``; by ROB or
  scheduling-window pressure, ``window``; by fetch bandwidth, ``fetch``;
* load latency beyond the L1 hit time is ``mem_latency``; the rest of an
  instruction's latency is ``execute``.

The invariant ``sum(breakdown) == total runtime`` is checked by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.instruction import CommitReason, DispatchReason, InFlight
from repro.core.results import RunColumns

# Categories of Figure 5, plus 'commit' (in-order commit bandwidth), which
# the paper folds into its 'execute' segment.
CATEGORIES = (
    "fwd_delay",
    "contention",
    "execute",
    "window",
    "fetch",
    "mem_latency",
    "br_mispredict",
    "commit",
)


@dataclass
class CriticalPathResult:
    """Output of one backward walk."""

    breakdown: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES}
    )
    critical_indices: set[int] = field(default_factory=set)
    total_cycles: int = 0

    @property
    def attributed_cycles(self) -> int:
        """Sum over all categories; equals ``total_cycles`` for a full walk."""
        return sum(self.breakdown.values())

    def merged_for_figure5(self) -> dict[str, int]:
        """The seven displayed categories (commit folded into execute)."""
        merged = dict(self.breakdown)
        merged["execute"] += merged.pop("commit")
        return merged


def analyze_critical_path(
    records: Sequence[InFlight],
    first_index: int | None = None,
) -> CriticalPathResult:
    """Walk the critical path backward from the last committed instruction.

    ``records`` must be a contiguous, committed slice of the trace.  The
    walk stops when it would cross below ``first_index`` (default: the first
    record), which supports chunked analysis for online training.
    """
    if not records:
        raise ValueError("no records to analyze")
    base = records[0].index
    if first_index is None:
        first_index = base
    by_index = records  # indexable by (trace index - base)

    def rec_at(index: int) -> InFlight | None:
        offset = index - base
        if offset < 0 or index < first_index or offset >= len(by_index):
            return None
        return by_index[offset]

    result = CriticalPathResult()
    last = records[-1]
    result.total_cycles = last.commit_time if base == 0 else (
        last.commit_time - records[0].dispatch_time
    )
    breakdown = result.breakdown
    critical = result.critical_indices

    # Walk state: a node kind, the instruction, and the wall-clock time of
    # the constraint chain so far.  'E_issue' enters an E node at its issue
    # point (used when a window slot freed by that issue gated dispatch).
    kind = "C"
    rec: InFlight | None = last
    time = last.commit_time

    while rec is not None:
        # An instruction counts as critical when its dispatch or execution
        # lies on the path; riding the in-order commit chain does not make
        # the instructions it passes critical (Fields et al. train their
        # detector on execution criticality).
        if kind != "C":
            critical.add(rec.index)
        if kind == "C":
            if (
                rec.commit_reason is CommitReason.COMMIT_ORDER
                and rec_at(rec.index - 1) is not None
            ):
                prev = rec_at(rec.index - 1)
                breakdown["commit"] += time - prev.commit_time
                rec, time = prev, prev.commit_time
                continue
            # Committed straight after completion: one commit cycle.
            breakdown["commit"] += time - rec.complete_time
            kind, time = "E", rec.complete_time
        elif kind == "E":
            # Decompose this instruction's own latency.
            breakdown["mem_latency"] += rec.mem_latency_extra
            breakdown["execute"] += rec.latency - rec.mem_latency_extra
            kind, time = "E_issue", rec.issue_time
        elif kind == "E_issue":
            breakdown["contention"] += time - rec.ready_time
            time = rec.ready_time
            producer_idx = rec.last_arriving_producer
            producer = rec_at(producer_idx) if producer_idx is not None else None
            if (
                producer is not None
                and rec.operand_avail == rec.ready_time
                and rec.operand_avail > rec.dispatch_time + 1
            ):
                if rec.critical_operand_forwarded:
                    fwd = rec.operand_avail - producer.complete_time
                    breakdown["fwd_delay"] += fwd
                rec, kind, time = producer, "E", producer.complete_time
            else:
                # Ready as soon as it entered the window: dispatch-bound.
                breakdown["execute"] += time - rec.dispatch_time
                kind, time = "D", rec.dispatch_time
        elif kind == "D":
            reason = rec.dispatch_reason
            pred = rec_at(rec.dispatch_pred) if rec.dispatch_pred is not None else None
            if reason is DispatchReason.START or pred is None:
                breakdown["fetch"] += time - (0 if base == 0 else time)
                break
            if reason is DispatchReason.FETCH_BANDWIDTH:
                breakdown["fetch"] += time - pred.dispatch_time
                rec, kind, time = pred, "D", pred.dispatch_time
            elif reason is DispatchReason.FETCH_REDIRECT:
                breakdown["br_mispredict"] += time - pred.complete_time
                rec, kind, time = pred, "E", pred.complete_time
            elif reason is DispatchReason.ROB_FULL:
                breakdown["window"] += time - pred.commit_time
                rec, kind, time = pred, "C", pred.commit_time
            else:  # CLUSTER_FULL or STEER_STALL: gated by a freeing issue.
                breakdown["window"] += time - pred.issue_time
                rec, kind, time = pred, "E_issue", pred.issue_time
        else:  # pragma: no cover - kinds are closed
            raise AssertionError(f"unknown node kind {kind}")

    return result


_COMMIT_ORDER = CommitReason.COMMIT_ORDER
_START = DispatchReason.START
_FETCH_BANDWIDTH = DispatchReason.FETCH_BANDWIDTH
_FETCH_REDIRECT = DispatchReason.FETCH_REDIRECT
_ROB_FULL = DispatchReason.ROB_FULL
# Node kinds of the column walk, as small ints.
_D, _E, _C, _E_ISSUE = 0, 1, 2, 3


def walk_columns(columns: RunColumns, lo: int, hi: int) -> CriticalPathResult:
    """:func:`analyze_critical_path` of positions ``[lo, hi)``, over columns.

    The same backward walk, step for step, returning the same result as
    ``analyze_critical_path(records[lo:hi])``.  The columns may belong to
    a run still in progress, as long as every position below ``hi`` has
    committed.
    """
    if not lo < hi:
        raise ValueError("no records to analyze")
    creason = columns.commit_reason
    dreason = columns.dispatch_reason
    dpred = columns.dispatch_pred
    last_arr = columns.last_arriving_producer
    op_avail = columns.operand_avail
    crit_fwd = columns.critical_operand_forwarded
    dispatch_t = columns.dispatch_time
    ready_t = columns.ready_time
    issue_t = columns.issue_time
    complete_t = columns.complete_time
    commit_t = columns.commit_time
    latency = columns.latency
    mem_extra = columns.mem_latency_extra
    fwd_delay = contention = execute = window = fetch = 0
    mem_latency = br_mispredict = commit = 0
    critical: set[int] = set()
    add = critical.add
    idx = hi - 1
    kind = _C
    time = commit_t[idx]
    while True:
        if kind == _C:
            if creason[idx] is _COMMIT_ORDER and idx - 1 >= lo:
                idx -= 1
                prev = commit_t[idx]
                commit += time - prev
                time = prev
                continue
            complete = complete_t[idx]
            commit += time - complete
            kind, time = _E, complete
            continue
        add(idx)
        if kind == _E:
            extra = mem_extra[idx]
            mem_latency += extra
            execute += latency[idx] - extra
            kind, time = _E_ISSUE, issue_t[idx]
        elif kind == _E_ISSUE:
            ready = ready_t[idx]
            contention += time - ready
            time = ready
            p = last_arr[idx]
            avail = op_avail[idx]
            if (
                p is not None
                and lo <= p < hi
                and avail == ready
                and avail > dispatch_t[idx] + 1
            ):
                if crit_fwd[idx]:
                    fwd_delay += avail - complete_t[p]
                idx = p
                kind, time = _E, complete_t[p]
            else:
                # Ready as soon as it entered the window: dispatch-bound.
                dispatch = dispatch_t[idx]
                execute += time - dispatch
                kind, time = _D, dispatch
        else:  # _D
            reason = dreason[idx]
            pv = dpred[idx]
            if reason is _START or pv is None or not lo <= pv < hi:
                if lo == 0:
                    fetch += time
                break
            idx = pv
            if reason is _FETCH_BANDWIDTH:
                prev = dispatch_t[pv]
                fetch += time - prev
            elif reason is _FETCH_REDIRECT:
                prev = complete_t[pv]
                br_mispredict += time - prev
                kind = _E
            elif reason is _ROB_FULL:
                prev = commit_t[pv]
                window += time - prev
                kind = _C
            else:  # CLUSTER_FULL or STEER_STALL: gated by a freeing issue.
                prev = issue_t[pv]
                window += time - prev
                kind = _E_ISSUE
            time = prev
    last_commit = commit_t[hi - 1]
    return CriticalPathResult(
        breakdown={
            "fwd_delay": fwd_delay,
            "contention": contention,
            "execute": execute,
            "window": window,
            "fetch": fetch,
            "mem_latency": mem_latency,
            "br_mispredict": br_mispredict,
            "commit": commit,
        },
        critical_indices=critical,
        total_cycles=last_commit if lo == 0 else last_commit - dispatch_t[lo],
    )


def critical_flags(
    records: Sequence[InFlight], chunk_size: int = 2048
) -> list[bool]:
    """Per-instruction criticality over a full run, via chunked walks.

    Mirrors the paper's sampling detector: the committed stream is analyzed
    in consecutive chunks and an instruction is critical when it lies on its
    chunk's critical path.
    """
    flags = [False] * len(records)
    base = records[0].index if records else 0
    for start in range(0, len(records), chunk_size):
        chunk = records[start : start + chunk_size]
        result = analyze_critical_path(chunk)
        for index in result.critical_indices:
            flags[index - base] = True
    return flags
