"""Crash-safe write-ahead store for the job service.

The service keeps its authoritative state in process memory (records,
cells, event journals, quota buckets) because every mutation happens on
one event loop.  This module makes that state survive the process: an
append-only journal under ``<cache>/service/`` records every accepted
submission (the full canonical :class:`~repro.specs.ExperimentSpec`
payload -- the submission *is* the work order), every per-job
settlement, every terminal state, and quota balances, so a restarted
server can replay the file and owe its clients exactly what the dead
server owed them.

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
        journal.jsonl                  # submit / settle / terminal / evict / quota
        journal.jsonl.corrupt          # quarantined damaged lines (forensics)
        events/<exp-id>.jsonl          # spilled SSE journal entries, replayable
        events/<exp-id>.jsonl.corrupt  # quarantined damaged spill lines

Event spill files give ``Last-Event-ID`` its cross-restart meaning: the
in-memory journal keeps only a bounded tail, older entries live here,
and the SSE stream reads through (memory first, then disk) so a client
reconnecting after a server restart replays the exact suffix it missed.
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

STORE_SCHEMA = "repro.service_store/1"

_JOURNAL = "journal.jsonl"
_EVENTS_DIR = "events"


def default_store_dir(cache_root: str | os.PathLike) -> Path:
    """Where the service journal lives for a given cache root."""
    return Path(cache_root) / "service"


@dataclass
class StoredExperiment:
    """One experiment as reconstructed from the journal."""

    id: str
    client: str
    priority: int
    created: float
    spec_payload: dict[str, Any]
    # key -> {"ok": bool, "source": str, "failure": dict | None}
    settles: dict[str, dict[str, Any]] = field(default_factory=dict)
    terminal: dict[str, Any] | None = None  # {"status", "finished", "message"}

    @property
    def status(self) -> str:
        return self.terminal["status"] if self.terminal else "queued"


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


def _settle_entry(exp_id, key, ok, source, failure=None) -> dict[str, Any]:
    entry = {"type": "settle", "id": exp_id, "key": key, "ok": bool(ok), "source": source}
    return entry if failure is None else {**entry, "failure": failure}


def _terminal_entry(exp_id, status, finished, message="") -> dict[str, Any]:
    entry = {"type": "terminal", "id": exp_id, "status": status, "finished": finished}
    return {**entry, "message": message} if message else entry


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
    elif kind == "settle":
        exp = experiments.get(str(entry["id"]))
        # First settle wins, matching note_settled().
        if exp is not None and entry["key"] not in exp.settles:
            exp.settles[str(entry["key"])] = {
                "ok": bool(entry["ok"]),
                "source": str(entry.get("source", "")),
                "failure": entry.get("failure"),
            }
    elif kind == "terminal":
        exp = experiments.get(str(entry["id"]))
        if exp is not None:
            exp.terminal = {
                "status": str(entry["status"]),
                "finished": entry.get("finished"),
                "message": str(entry.get("message", "")),
            }
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

    Thread-safe: the server appends from the event loop *and* (via the
    workbench settle callback path) from worker threads; one lock
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

    def record_settle(
        self,
        exp_id: str,
        key: str,
        ok: bool,
        source: str,
        failure: dict[str, Any] | None = None,
    ) -> None:
        """Journal one settled job cell of one experiment."""
        self._append(_settle_entry(exp_id, key, ok, source, failure))

    def record_terminal(
        self,
        exp_id: str,
        status: str,
        finished: float | None,
        message: str = "",
    ) -> None:
        """Journal an experiment reaching ``done`` / ``error``."""
        self._append(_terminal_entry(exp_id, status, finished, message))

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
        them, so they are counted once (a torn tail event is simply
        re-lost; SSE ids stay consistent because replay re-derives the
        journal from settled state, not from this file).
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

    def event_count(self, exp_id: str) -> int:
        return len(self.load_events(exp_id))

    # -- replay -----------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Reconstruct journaled state; quarantine what cannot be parsed."""
        result = ReplayResult()
        experiments: dict[str, StoredExperiment] = {}
        with self._lock:
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

    # -- compaction --------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the journal as its own minimal replay; returns live count.

        Collapses duplicate settles, drops evicted experiments, keeps only
        the final quota snapshot, and sweeps the event-spill files (and
        their quarantines) of experiments no longer live.  Atomic: readers
        see the old journal or the new one.
        """
        with self._lock:
            replayed = self.replay()
            entries = []
            for exp in replayed.experiments:
                entries.append(_submit_entry(
                    exp.id, exp.client, exp.priority, exp.created, exp.spec_payload
                ))
                entries.extend(
                    _settle_entry(exp.id, key, **settle)
                    for key, settle in exp.settles.items()
                )
                if exp.terminal is not None:
                    entries.append(_terminal_entry(exp.id, **exp.terminal))
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
    def flush(self) -> None:
        """Nothing to do: every append reaches the OS before it returns."""

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
