"""Append-only JSON-lines files: the one on-disk journal type.

The sweep manifests and the job service's write-ahead journal and SSE
spill files are all :class:`Journal`\\ s: one JSON object per line.

* :meth:`Journal.append` hands whole lines to the OS in one ``write`` on
  an ``O_APPEND`` descriptor before it returns, so they survive SIGKILL
  of the process (no ``fsync``: power loss is out of scope).  Writers
  take an exclusive ``flock`` on the file for the append, so concurrent
  writers never split or pad each other's lines.  A torn tail left by a
  killed writer is sealed with a newline first.
* :meth:`Journal.read` returns every JSON-object line in order, copying a
  torn or unparseable line to ``<file>.corrupt`` and counting it.
* :meth:`Journal.rewrite` replaces the file through :func:`atomic_write`:
  a sibling temp file tagged with the pid and thread id, then
  :func:`os.replace`, so readers see the old file or the new one.
"""

from __future__ import annotations

import fcntl
import json
import os
import pathlib
import threading
from typing import Any, Iterable

__all__ = ["Journal", "atomic_write", "temp_path"]


def temp_path(path: pathlib.Path | str) -> pathlib.Path:
    """A sibling of ``path`` that no other process or thread writes."""
    path = pathlib.Path(path)
    return path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_native_id()}")


def atomic_write(path: pathlib.Path | str, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically."""
    tmp = temp_path(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _lines(entries: Iterable[dict[str, Any]]) -> str:
    return "".join(
        json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n" for entry in entries
    )


def _append(path: pathlib.Path, data: bytes) -> None:
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        # Without the lock another writer's write() can be partway done
        # when the last byte is read, and a tail that is not torn gets
        # sealed with a stray blank line.  Closing the file releases it.
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size:
            os.lseek(fd, size - 1, os.SEEK_SET)  # appends still go to the end
            if os.read(fd, 1) != b"\n":
                data = b"\n" + data
        os.write(fd, data)
    finally:
        os.close(fd)


class Journal:
    """One JSON-lines file; holds no open file or lock between calls."""

    def __init__(self, path: pathlib.Path | str):
        self.path = pathlib.Path(path)
        self.quarantine_path = self.path.with_name(self.path.name + ".corrupt")
        self.quarantined = 0

    def append(self, *entries: dict[str, Any]) -> None:
        """Append one line per entry; creates the file even with none."""
        _append(self.path, _lines(entries).encode("utf-8"))

    def read(self) -> list[dict[str, Any]]:
        """Every JSON-object line, in order; damaged lines are quarantined."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        entries = []
        for raw in data.split(b"\n"):
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw)
            except ValueError:  # also UnicodeDecodeError
                entry = None
            if isinstance(entry, dict):
                entries.append(entry)
            else:
                self._quarantine(raw + b"\n")
        return entries

    def quarantine(self, entry: dict[str, Any]) -> None:
        """Quarantine a line that parsed but that its reader cannot use."""
        self._quarantine(_lines([entry]).encode("utf-8"))

    def _quarantine(self, line: bytes) -> None:
        _append(self.quarantine_path, line)
        self.quarantined += 1

    def rewrite(self, entries: Iterable[dict[str, Any]]) -> None:
        """Atomically replace the file with exactly ``entries``."""
        atomic_write(self.path, _lines(entries).encode("utf-8"))
