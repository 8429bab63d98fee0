"""Crash-safe write-ahead store for the job service.

The service keeps its authoritative state in process memory (records,
cells, event journals, quota buckets) because every mutation happens on
one event loop.  This module makes that state survive the process: an
append-only journal under ``<cache>/service/`` records every accepted
submission (the full canonical :class:`~repro.specs.ExperimentSpec`
payload -- the submission *is* the work order), evictions and quota
balances, and each experiment's SSE event journal is spilled beside it.
That event log is the experiment's only per-job record: its ``job``
events are the settlements and its ``done`` / ``error`` event the
terminal state, so a restarted server can replay both files and owe its
clients exactly what the dead server owed them.

Every file here is a :class:`~repro.experiments.journal.Journal`, so
the durability model is the journal's, tuned to the failure the
acceptance test injects (``kill -9`` of the *process*, not power loss):
each append reaches the OS before it returns, without ``fsync``;
compaction rewrites atomically; and a torn final line (the SIGKILL
landed mid-append) or a damaged entry is quarantined to
``<file>.corrupt`` while everything parseable is recovered, so the
damaged jobs simply recompute.

Layout::

    <cache>/service/
        journal.jsonl                  # submit / evict / quota
        journal.jsonl.corrupt          # quarantined damaged lines (forensics)
        events/<exp-id>.jsonl          # the SSE journal: status / job / done / error
        events/<exp-id>.jsonl.corrupt  # quarantined damaged spill lines

Event spill files also give ``Last-Event-ID`` its cross-restart
meaning: the in-memory journal keeps only a bounded tail, older entries
live here, and the SSE stream reads through (memory first, then disk)
so a client reconnecting after a server restart replays the exact
suffix it missed.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.journal import Journal

__all__ = [
    "DurableStore",
    "ReplayResult",
    "STORE_SCHEMA",
    "StoredExperiment",
    "default_store_dir",
]

STORE_SCHEMA = "repro.service_store/2"

_JOURNAL = "journal.jsonl"
_EVENTS_DIR = "events"


def default_store_dir(cache_root: str | os.PathLike) -> Path:
    """Where the service journal lives for a given cache root."""
    return Path(cache_root) / "service"


@dataclass
class StoredExperiment:
    """One experiment as reconstructed from the journal and its event log."""

    id: str
    client: str
    priority: int
    created: float
    spec_payload: dict[str, Any]
    # key -> {"ok": bool, "source": str, "failure": dict | None, "kind": str},
    # from the first ``job`` event of each key
    settles: dict[str, dict[str, Any]] = field(default_factory=dict)
    terminal: dict[str, Any] | None = None  # {"status", "finished"}
    events: int = 0  # entries in the event log

    @property
    def status(self) -> str:
        return self.terminal["status"] if self.terminal else "queued"

    def fold(self, entry: dict[str, Any]) -> None:
        """Apply one event-log entry; raises on a malformed one.

        A ``job`` event settles its key and a ``done`` / ``error`` event
        is the terminal state; ``status`` events carry nothing to replay.
        """
        data, event = entry["data"], entry["event"]
        if event == "job":
            # First settle wins, matching note_settled().
            self.settles.setdefault(str(data["key"]), {
                "ok": data["status"] == "ok",
                "source": str(data["source"]),
                "failure": data.get("failure"),
                "kind": str(data["kind"]),
            })
        elif event in ("done", "error"):
            finished = self.created + float(data["elapsed_seconds"])
            self.terminal = {"status": event, "finished": finished}


@dataclass
class ReplayResult:
    """Everything :meth:`DurableStore.replay` recovered."""

    experiments: list[StoredExperiment] = field(default_factory=list)
    quota: dict[str, float] = field(default_factory=dict)
    quarantined: int = 0
    evicted: int = 0


# -- one entry builder per type, shared by record_* and compact() -----


def _submit_entry(exp_id, client, priority, created, spec) -> dict[str, Any]:
    return {"type": "submit", "schema": STORE_SCHEMA, "id": exp_id, "client": client,
            "priority": int(priority), "created": created, "spec": spec}


def _quota_entry(balances: dict[str, float]) -> dict[str, Any]:
    return {"type": "quota", "balances": dict(balances)}


def _apply(entry: dict[str, Any], experiments: dict[str, StoredExperiment],
           result: ReplayResult) -> None:
    """Fold one journal entry into the replay; raises on a malformed one."""
    kind = entry.get("type")
    if kind == "submit":
        exp = StoredExperiment(
            id=str(entry["id"]),
            client=str(entry.get("client", "anonymous")),
            priority=int(entry.get("priority", 0)),
            created=float(entry.get("created", 0.0)),
            spec_payload=dict(entry["spec"]),
        )
        experiments[exp.id] = exp
    elif kind == "evict":
        if experiments.pop(str(entry["id"]), None) is not None:
            result.evicted += 1
    elif kind == "quota":
        balances = entry.get("balances")
        if not isinstance(balances, dict):
            raise ValueError("quota entry without balances")
        result.quota = {str(k): float(v) for k, v in balances.items()}
    else:
        raise ValueError(f"unknown entry type {kind!r}")


class DurableStore:
    """Append-only journal of service state under one directory.

    Thread-safe: the server appends from the event loop and reads spill
    files back from worker threads (SSE read-through); one lock
    serializes every append, replay and rewrite.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _EVENTS_DIR).mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._journal = Journal(self.root / _JOURNAL)
        self.appends = 0
        self.quarantined = 0

    # -- paths ----------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self._journal.path

    @property
    def quarantine_path(self) -> Path:
        return self._journal.quarantine_path

    def events_path(self, exp_id: str) -> Path:
        # Experiment ids are server-minted ("exp-000042"), never client
        # strings, so they are safe as filenames by construction; assert
        # the invariant anyway rather than trust a future refactor.
        if "/" in exp_id or os.sep in exp_id or exp_id in {".", ".."}:
            raise ValueError(f"unsafe experiment id for events file: {exp_id!r}")
        return self.root / _EVENTS_DIR / f"{exp_id}.jsonl"

    # -- write-ahead API -------------------------------------------------
    def _append(self, entry: dict[str, Any]) -> None:
        with self._lock:
            self._journal.append(entry)
            self.appends += 1

    def record_submit(
        self,
        exp_id: str,
        client: str,
        priority: int,
        created: float,
        spec_payload: dict[str, Any],
    ) -> None:
        """Journal an accepted submission (before any job executes)."""
        self._append(_submit_entry(exp_id, client, priority, created, spec_payload))

    def record_evict(self, exp_id: str) -> None:
        """Journal a history eviction and drop the spilled events files."""
        with self._lock:
            self._append({"type": "evict", "id": exp_id})
            spill = Journal(self.events_path(exp_id))
            spill.path.unlink(missing_ok=True)
            spill.quarantine_path.unlink(missing_ok=True)

    def record_quota(self, balances: dict[str, float]) -> None:
        """Journal a quota-balance snapshot (last entry wins on replay)."""
        self._append(_quota_entry(balances))

    # -- event spill ------------------------------------------------------
    def append_event(self, exp_id: str, entry: dict[str, Any]) -> None:
        """Spill one SSE journal entry for ``exp_id`` to disk."""
        with self._lock:
            Journal(self.events_path(exp_id)).append(entry)

    def load_events(self, exp_id: str) -> list[dict[str, Any]]:
        """All spilled events for ``exp_id``, in append (= id) order.

        Damaged lines are quarantined and the file is rewritten without
        them, so they are counted once.  A torn tail event is simply
        re-lost: its id is reissued, and a lost ``job`` event's key
        settles again on recovery.
        """
        with self._lock:
            spill = Journal(self.events_path(exp_id))
            entries = []
            for entry in spill.read():
                if "id" in entry:
                    entries.append(entry)
                else:
                    spill.quarantine(entry)
            if spill.quarantined:
                spill.rewrite(entries)
                self.quarantined += spill.quarantined
            return entries

    # -- replay -----------------------------------------------------------
    def _read_journal(self) -> ReplayResult:
        """Fold ``journal.jsonl`` alone (lock held); quarantine what cannot be parsed."""
        result = ReplayResult()
        experiments: dict[str, StoredExperiment] = {}
        before = self._journal.quarantined
        for entry in self._journal.read():
            try:
                _apply(entry, experiments, result)
            except (KeyError, TypeError, ValueError):
                self._journal.quarantine(entry)
        result.quarantined = self._journal.quarantined - before
        self.quarantined += result.quarantined
        result.experiments = list(experiments.values())
        return result

    def replay(self) -> ReplayResult:
        """Reconstruct stored state: the journal, then each live event log."""
        with self._lock:
            result = self._read_journal()
            for exp in result.experiments:
                events = self.load_events(exp.id)
                exp.events = len(events)
                for entry in events:
                    try:
                        exp.fold(entry)
                    except (KeyError, TypeError, ValueError):
                        pass  # a damaged event replays as if it were never written
        return result

    # -- compaction --------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the journal as its own minimal replay; returns live count.

        Keeps one ``submit`` line per live experiment and only the final
        quota snapshot, and sweeps the event-spill files (and their
        quarantines) of experiments no longer live.  Atomic: readers see
        the old journal or the new one.
        """
        with self._lock:
            replayed = self._read_journal()
            entries = [
                _submit_entry(exp.id, exp.client, exp.priority, exp.created, exp.spec_payload)
                for exp in replayed.experiments
            ]
            if replayed.quota:
                entries.append(_quota_entry(replayed.quota))
            self._journal.rewrite(entries)
            live_ids = {exp.id for exp in replayed.experiments}
            for path in (self.root / _EVENTS_DIR).iterdir():
                # <exp-id>.jsonl and <exp-id>.jsonl.corrupt
                if path.name.split(".", 1)[0] not in live_ids:
                    path.unlink(missing_ok=True)
            return len(replayed.experiments)

    # -- bookkeeping -------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters and layout for readiness probes / the stats endpoint."""
        try:
            journal_bytes = self.journal_path.stat().st_size
        except FileNotFoundError:
            journal_bytes = 0
        return {
            "path": str(self.root),
            "journal_bytes": journal_bytes,
            "appends": self.appends,
            "quarantined": self.quarantined,
        }

    def close(self) -> None:
        """Nothing to release: the store keeps no file open between appends."""
