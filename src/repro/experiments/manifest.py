"""Sweep manifests: durable per-job outcome records for checkpoint/resume.

A :class:`SweepManifest` is a :class:`~repro.experiments.journal.Journal`
at ``<cache>/manifests/<spec_hash>.jsonl`` (keyed by the sweep's
:func:`~repro.specs.spec_hash`) with one self-describing line per
settled job: schema, spec hash, job key and the job's
:class:`~repro.experiments.outcomes.JobOutcome` (status, failure kind,
attempts, elapsed).  On replay the last line for a job key wins.  The
spec runner appends each job's line as it settles, so

* an interrupted ``repro --spec`` rerun knows exactly which jobs already
  finished (their results come back from the persistent
  :class:`~repro.experiments.cache.RunCache`; the manifest supplies the
  accounting and the "resumed N of M" status line);
* jobs that *failed* last time are visible -- and re-attempted -- on the
  next run instead of silently vanishing from the table;
* concurrent writers of one manifest keep each other's lines.

Manifests are advisory: losing one (or the ``--no-resume`` flag) merely
forfeits the accounting -- correctness always rests on the
content-addressed cache and the deterministic executor.  A damaged line
is quarantined to ``*.jsonl.corrupt`` with one warning per open.
Single-document ``<spec_hash>.json`` manifests (``repro.sweep_manifest/1``)
are not read.
"""

from __future__ import annotations

import pathlib
import threading
import warnings
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.experiments.journal import Journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.outcomes import JobOutcome

__all__ = ["MANIFEST_SCHEMA", "SweepManifest", "default_manifest_dir"]

MANIFEST_SCHEMA = "repro.sweep_manifest/2"

# Fields every line carries besides the job's own entry.
_HEADER = ("schema", "spec_hash", "key")


def default_manifest_dir(cache_root: pathlib.Path) -> pathlib.Path:
    """Where sweep manifests live relative to the run cache."""
    return cache_root / "manifests"


class SweepManifest:
    """Per-job outcome journal for one sweep, keyed by its spec hash."""

    def __init__(self, path: pathlib.Path, spec_hash: str, name: str = ""):
        self.path = pathlib.Path(path)
        self.spec_hash = spec_hash
        self.name = name
        self.entries: dict[str, dict[str, Any]] = {}
        # Entries per status, so completed()/failed() hold the lock for
        # O(1): scanning every entry under it lets a thread polling
        # summary() starve one calling record().
        self._statuses: Counter[str] = Counter()
        # Jobs recorded "ok" by a *previous* invocation: the resume set.
        self.resumed: frozenset[str] = frozenset()
        self._journal = Journal(self.path)
        self._unsaved: list[dict[str, Any]] = []
        # record()/save() may be driven from multiple threads of one
        # process (the job service journals from executor callback
        # threads) while another thread reads the summary.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, directory: pathlib.Path | str, spec_hash: str, name: str = ""
    ) -> "SweepManifest":
        """Replay the manifest for ``spec_hash`` (empty if absent)."""
        directory = pathlib.Path(directory)
        manifest = cls(directory / f"{spec_hash}.jsonl", spec_hash, name)
        manifest._load()
        return manifest

    def _load(self) -> None:
        for line in self._journal.read():
            key = line.get("key")
            ours = line.get("schema") == MANIFEST_SCHEMA and line.get("spec_hash") == self.spec_hash
            if not (ours and isinstance(key, str)):
                self._journal.quarantine(line)
                continue
            self._set(key, {k: v for k, v in line.items() if k not in _HEADER})
        if self._journal.quarantined:
            warnings.warn(
                f"quarantined {self._journal.quarantined} damaged line(s) of "
                f"sweep manifest {self.path} to {self._journal.quarantine_path}; "
                "those jobs lose their record (results still resume from the "
                "run cache)",
                RuntimeWarning,
                stacklevel=3,
            )
        self.resumed = frozenset(
            key for key, entry in self.entries.items() if entry.get("status") == "ok"
        )

    # ------------------------------------------------------------------
    def record(self, key: str, outcome: "JobOutcome") -> None:
        """Absorb one settled job outcome (call :meth:`save` to persist)."""
        entry: dict[str, Any] = {
            "status": "ok" if outcome.ok else "failed",
            "kernel": outcome.job.kernel,
            "config": outcome.job.config.name,
            "attempts": outcome.attempts,
            "elapsed": round(outcome.elapsed, 6),
        }
        if outcome.failure is not None:
            entry["failure"] = outcome.failure.to_dict()
        line = {"schema": MANIFEST_SCHEMA, "spec_hash": self.spec_hash, "key": key, **entry}
        with self._lock:
            self._set(key, entry)
            self._unsaved.append(line)

    def _set(self, key: str, entry: dict[str, Any]) -> None:
        old = self.entries.get(key)
        if old is not None:
            self._statuses[old.get("status")] -= 1
        self.entries[key] = entry
        self._statuses[entry.get("status")] += 1

    def completed(self) -> int:
        with self._lock:
            return self._statuses["ok"]

    def failed(self) -> int:
        with self._lock:
            return self._statuses["failed"]

    def summary(self) -> dict[str, int]:
        with self._lock:
            return {
                "jobs": len(self.entries),
                "completed": self.completed(),
                "failed": self.failed(),
                "resumed": len(self.resumed),
            }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "spec_hash": self.spec_hash,
            "name": self.name,
            "jobs": self.entries,
        }

    def save(self, force: bool = False) -> None:
        """Append the lines recorded since the last save; never rewrites.

        A no-op when nothing is new, unless ``force`` -- which still
        creates the file, so a sweep that settled nothing leaves a record
        that it ran.
        """
        with self._lock:
            if not (self._unsaved or force):
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._journal.append(*self._unsaved)
            self._unsaved.clear()
