"""Per-experiment server-side state: job cells, counters, event journal.

An :class:`ExperimentRecord` is the service's unit of tenancy: one
accepted ``POST /v1/experiments`` body, its enumerated jobs (content-
addressed by :func:`~repro.experiments.cache.job_key`), how each job is
being satisfied (``execute`` / ``coalesced`` / ``cached``), and an
append-only event journal that both the status endpoint and the SSE
stream are views of.

The journal is the SSE wire format's source of truth: every event has a
1-based ``id``, so a client that reconnects with ``Last-Event-ID: n``
(or ``?after=n``) replays the suffix and provably misses nothing.  All
mutation happens on the server's event loop; worker threads reach the
record only through ``loop.call_soon_threadsafe``.

With a durable store attached the journal is *bounded and persistent*:
every published entry is handed to the ``on_event`` hook (the server
spills it to ``<store>/events/<id>.jsonl``), memory keeps only the most
recent ``max_events`` entries (``events_base`` counts the spilled
prefix), and SSE replay reads through -- disk for the spilled prefix,
memory for the live tail.  Ids are assigned from ``events_total``, so
they stay dense and strictly increasing across trims *and* across
server restarts.  The spilled journal is also the experiment's only
durable per-job record: a restarted server settles each key from its
first ``job`` event and takes the terminal state from the ``done`` /
``error`` event, so every settle publishes its event
(``note_settled(publish=False)`` only re-applies stored settles at boot).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import RunJob
    from repro.specs import ExperimentSpec

__all__ = ["ExperimentRecord", "JobCell"]

# Record lifecycle:  queued -> running -> done
#                      \________________^  (all-cached / all-coalesced
#                                           submissions skip "running")
# "error" is reserved for the service failing the experiment as a whole
# (executor blew up, shutdown); per-job failures still end in "done"
# with failed > 0 -- partial results are results.
_TERMINAL = frozenset({"done", "error"})


@dataclass
class JobCell:
    """One distinct job key of one experiment and how it gets satisfied."""

    job: "RunJob"
    key: str
    kind: str            # "execute" | "coalesced" | "cached"
    status: str = "pending"   # "pending" | "ok" | "failed"
    source: str = ""          # "run" | "cache" | "memory" | "coalesced"
    failure: dict[str, Any] | None = None

    @property
    def settled(self) -> bool:
        return self.status != "pending"


@dataclass
class ExperimentRecord:
    """Everything the service tracks for one submitted experiment."""

    id: str
    spec: "ExperimentSpec"
    spec_hash: str
    client: str
    priority: int = 0
    jobs: list["RunJob"] = field(default_factory=list)  # full spec order
    cells: dict[str, JobCell] = field(default_factory=dict)  # by job key
    status: str = "queued"
    created: float = field(default_factory=time.time)
    finished: float | None = None
    events: list[dict[str, Any]] = field(default_factory=list)
    # Entries spilled out of memory (they precede events[0]'s id).
    events_base: int = 0
    # Memory bound: publish() trims the journal down to this many
    # in-memory entries (None = unbounded, the storeless default).
    max_events: int | None = None
    # Spill hook, set by the server: called with each published entry
    # *before* any trim, so the durable store always holds a superset of
    # what memory dropped.
    on_event: "Callable[[dict[str, Any]], None] | None" = None
    _cond: asyncio.Condition = field(default_factory=asyncio.Condition)

    # -- event journal --------------------------------------------------
    @property
    def events_total(self) -> int:
        """Journal length including spilled entries (the next id - 1)."""
        return self.events_base + len(self.events)

    def publish(self, event: str, data: dict[str, Any]) -> dict[str, Any]:
        """Append one journal event and wake SSE streams (loop only)."""
        entry = {"id": self.events_total + 1, "event": event, "data": data}
        if self.on_event is not None:
            self.on_event(entry)
        self.events.append(entry)
        if self.max_events is not None and len(self.events) > self.max_events:
            drop = len(self.events) - self.max_events
            del self.events[:drop]
            self.events_base += drop

        async def _notify() -> None:
            async with self._cond:
                self._cond.notify_all()

        # publish() always runs on the loop, so the notify task is safe
        # to fire-and-forget; waiters re-check the journal length anyway.
        asyncio.ensure_future(_notify())
        return entry

    def events_after(self, after: int) -> list[dict[str, Any]]:
        """In-memory entries with ``id > after`` (spilled prefix excluded).

        The SSE stream uses this for the live tail; entries with
        ``id <= events_base`` must be read back from the durable store.
        """
        if after >= self.events_total:
            return []
        start = max(after - self.events_base, 0)
        return self.events[start:]

    async def wait_for_events(self, known: int, timeout: float) -> None:
        """Block until the journal grows past ``known`` ids (or timeout)."""
        async with self._cond:
            if self.events_total > known:
                return
            try:
                await asyncio.wait_for(self._cond.wait(), timeout)
            except asyncio.TimeoutError:
                return

    # -- job settlement -------------------------------------------------
    def note_settled(
        self,
        key: str,
        ok: bool,
        source: str,
        failure: dict[str, Any] | None = None,
        publish: bool = True,
    ) -> None:
        """Record one settled key and publish its ``job`` event; first settle wins."""
        cell = self.cells.get(key)
        if cell is None or cell.settled:
            return
        cell.status = "ok" if ok else "failed"
        cell.source = source
        cell.failure = failure
        if publish:
            data = {
                "key": key,
                "status": cell.status,
                "kind": cell.kind,
                "source": source,
                "kernel": cell.job.kernel,
                "config": cell.job.config.name,
            }
            if failure is not None:
                data["failure"] = failure
            self.publish("job", data)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def all_settled(self) -> bool:
        return all(cell.settled for cell in self.cells.values())

    def pending_cells(self) -> list[JobCell]:
        return [cell for cell in self.cells.values() if not cell.settled]

    # -- summaries ------------------------------------------------------
    def job_counts(self) -> dict[str, int]:
        counts = {
            "total": len(self.cells),
            "execute": 0,
            "coalesced": 0,
            "cached": 0,
            "completed": 0,
            "failed": 0,
        }
        for cell in self.cells.values():
            counts[cell.kind] += 1
            if cell.status == "ok":
                counts["completed"] += 1
            elif cell.status == "failed":
                counts["failed"] += 1
        return counts

    def status_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "spec_hash": self.spec_hash,
            "status": self.status,
            "client": self.client,
            "priority": self.priority,
            "jobs": self.job_counts(),
            "events": self.events_total,
            "created": self.created,
        }
        if self.finished is not None:
            payload["elapsed_seconds"] = round(self.finished - self.created, 6)
        return payload
