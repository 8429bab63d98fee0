"""Coordinator side of distributed sweeps: lease ledger and transports.

The :class:`TaskBoard` is the authoritative ledger for the TCP transport:
which tasks are pending, which are leased (and how stale the lease's
heartbeat is), which have settled.  Its invariants carry the whole
fault-tolerance story:

* a task is **settled at most once** -- late duplicate results from a
  stolen-then-finished lease are dropped, which is what makes
  at-least-once execution safe;
* a lease that misses its heartbeat deadline (or whose worker
  disconnects) is **released**: the task is charged one ``crash``
  attempt and re-queued for any other worker (work stealing), exactly as
  the local pool charges jobs lost to a ``BrokenProcessPool``;
* a task whose leases keep dying past the policy's retry budget settles
  as a final ``crash`` :class:`~repro.experiments.outcomes.RunFailure`
  instead of looping forever.

Transports serve the ledger to workers:

* :class:`TcpCoordinator` -- a threading TCP server speaking the framed
  JSON protocol (:mod:`repro.distwork.protocol`); worker disconnection
  releases its leases immediately, heartbeats extend them.
* :class:`DirCoordinator` -- no sockets: tasks spool as files on a
  shared directory (``tasks/`` -> atomically renamed to ``active/`` on
  claim -> result in ``results/``), heartbeats are ``mtime`` touches,
  and stale ``active/`` files get moved back to ``tasks/``.  Works over
  NFS between hosts with no ports open.

Both expose the same narrow surface to
:class:`~repro.experiments.distributed.DistributedExecutor`:
``publish`` / ``pump`` / ``cancel_pending`` / ``stop`` / ``close``.
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import socketserver
import threading
import time
from typing import Any

from repro.distwork.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.experiments.journal import atomic_write
from repro.experiments.outcomes import RunFailure

__all__ = ["DirCoordinator", "TaskBoard", "TcpCoordinator"]


def _lost_lease_outcome(task: dict[str, Any], attempts: int) -> dict[str, Any]:
    """The final failure message for a task whose leases keep dying."""
    failure = RunFailure(
        kind="crash",
        error_type="WorkerLost",
        message=(
            f"worker lease died {attempts} time(s) "
            "(heartbeat expired or worker disconnected)"
        ),
        attempts=attempts,
        elapsed=0.0,
    )
    return {
        "job": task["job"],
        "result": None,
        "failure": failure.to_dict(),
        "attempts": attempts,
        "elapsed": 0.0,
        "source": "run",
    }


def _max_attempts(task: dict[str, Any]) -> int:
    """Total lease attempts before a task fails for good (pool-identical:
    a job runs at most ``max_retries + 1`` times)."""
    return int(task.get("policy", {}).get("max_retries", 2)) + 1


class TaskBoard:
    """Thread-safe pending/leased/settled ledger (TCP transport state).

    Tasks are wire-format dicts (``{"id", "job", "policy", "attempt"}``)
    so the board never needs the simulation layer.  All mutation happens
    under one lock; settled outcomes stream out through ``results`` for
    the executor's drain loop.
    """

    def __init__(self, lease_timeout: float = 15.0):
        self.lease_timeout = lease_timeout
        self.results: "queue.Queue[tuple[str, dict[str, Any]]]" = queue.Queue()
        self.stopping = False
        self._lock = threading.Lock()
        self._tasks: dict[str, dict[str, Any]] = {}
        self._pending: list[str] = []
        self._leases: dict[str, tuple[str, float]] = {}  # id -> (worker, deadline)
        self._attempts: dict[str, int] = {}  # attempts charged by dead leases
        self._settled: set[str] = set()

    def add(self, task: dict[str, Any]) -> None:
        with self._lock:
            tid = task["id"]
            self._tasks[tid] = task
            self._attempts.setdefault(tid, int(task.get("attempt", 0)))
            self._pending.append(tid)

    def claim(self, worker: str) -> dict[str, Any] | None:
        """Lease the oldest pending task to ``worker`` (None when idle)."""
        with self._lock:
            if not self._pending:
                return None
            tid = self._pending.pop(0)
            self._leases[tid] = (worker, time.monotonic() + self.lease_timeout)
            task = dict(self._tasks[tid])
            task["attempt"] = self._attempts[tid]
            return task

    def heartbeat(self, tid: str, worker: str) -> bool:
        """Extend the lease; False when the lease is no longer ours."""
        with self._lock:
            lease = self._leases.get(tid)
            if lease is None or lease[0] != worker:
                return False
            self._leases[tid] = (worker, time.monotonic() + self.lease_timeout)
            return True

    def complete(self, tid: str, outcome: dict[str, Any]) -> bool:
        """Settle ``tid``; False (dropped) when it already settled."""
        with self._lock:
            if tid in self._settled or tid not in self._tasks:
                return False
            self._settled.add(tid)
            self._leases.pop(tid, None)
            if tid in self._pending:  # stolen and re-queued, then finished
                self._pending.remove(tid)
        self.results.put((tid, outcome))
        return True

    def release_worker(self, worker: str) -> None:
        """Re-queue (or fail out) every lease held by a dead worker."""
        with self._lock:
            lost = [tid for tid, (w, _) in self._leases.items() if w == worker]
            for tid in lost:
                self._release_locked(tid)

    def reap_expired(self) -> None:
        """Re-queue (or fail out) every lease past its heartbeat deadline."""
        now = time.monotonic()
        with self._lock:
            lost = [
                tid for tid, (_, deadline) in self._leases.items() if deadline <= now
            ]
            for tid in lost:
                self._release_locked(tid)

    def _release_locked(self, tid: str) -> None:
        del self._leases[tid]
        if tid in self._settled:
            return
        self._attempts[tid] += 1
        attempts = self._attempts[tid]
        if attempts >= _max_attempts(self._tasks[tid]):
            self._settled.add(tid)
            self.results.put((tid, _lost_lease_outcome(self._tasks[tid], attempts)))
        else:
            self._pending.append(tid)

    def cancel_pending(self) -> int:
        """Drop every un-leased task (cooperative interrupt); count dropped."""
        with self._lock:
            dropped = len(self._pending)
            for tid in self._pending:
                self._settled.add(tid)
            self._pending.clear()
            return dropped


class _TcpHandler(socketserver.BaseRequestHandler):
    """One persistent worker connection: request/response frames until EOF."""

    def handle(self) -> None:  # pragma: no cover - exercised via integration
        board: TaskBoard = self.server.board  # type: ignore[attr-defined]
        worker = "?"
        try:
            while True:
                message = recv_frame(self.request)
                if message is None:
                    break
                op = message.get("op")
                worker = str(message.get("worker", worker))
                if op == "hello":
                    send_frame(
                        self.request,
                        {
                            "op": "welcome",
                            "version": PROTOCOL_VERSION,
                            "heartbeat": board.lease_timeout / 3.0,
                        },
                    )
                elif op == "next":
                    if board.stopping:
                        send_frame(self.request, {"op": "stop"})
                    else:
                        task = board.claim(worker)
                        if task is None:
                            send_frame(self.request, {"op": "idle"})
                        else:
                            send_frame(self.request, dict(task, op="task"))
                elif op == "heartbeat":
                    held = board.heartbeat(str(message.get("id")), worker)
                    # "lost" tells a slow-but-alive worker its lease was
                    # stolen or the task settled elsewhere: abandon the
                    # run (the result would be dropped) and lease fresh
                    # work instead.
                    send_frame(self.request, {"op": "ok" if held else "lost"})
                elif op == "done":
                    board.complete(str(message.get("id")), message["outcome"])
                    send_frame(self.request, {"op": "ok"})
                else:
                    raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, OSError, KeyError):
            pass  # damaged peer: drop the connection, leases release below
        finally:
            board.release_worker(worker)


class _TcpServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class TcpCoordinator:
    """Serve a :class:`TaskBoard` to socket workers on ``host:port``.

    ``port`` 0 binds an ephemeral port; read the real one from
    :attr:`address`.  The server threads only touch the board (thread-safe
    by construction); :meth:`pump` runs lease reaping on the caller's
    thread so expiry timing is owned by the executor's drain loop.
    """

    def __init__(self, host: str, port: int, *, lease_timeout: float = 15.0):
        self.board = TaskBoard(lease_timeout=lease_timeout)
        self._server = _TcpServer((host, port), _TcpHandler)
        self._server.board = self.board  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="distwork-tcp",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def publish(self, task: dict[str, Any]) -> None:
        self.board.add(task)

    def pump(self) -> list[tuple[str, dict[str, Any]]]:
        """Reap expired leases; drain settled outcomes (non-blocking)."""
        self.board.reap_expired()
        settled: list[tuple[str, dict[str, Any]]] = []
        while True:
            try:
                settled.append(self.board.results.get_nowait())
            except queue.Empty:
                return settled

    def cancel_pending(self) -> int:
        return self.board.cancel_pending()

    def stop(self) -> None:
        """Tell workers (on their next ``next``) that the sweep is over."""
        self.board.stopping = True

    def close(self) -> None:
        self.stop()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


class DirCoordinator:
    """Spool-directory transport: the filesystem *is* the task board.

    Layout under ``root``::

        tasks/<id>.json    queued task (claim = atomic rename to active/)
        active/<id>.json   leased task; worker heartbeats by touching mtime
        results/<id>.json  settled outcome (written via temp file + rename)
        stop               sentinel; workers exit when it appears

    Construction empties all three directories (and removes the
    sentinel): the spool is transient per-sweep state owned by the
    coordinator, and files left by a previous run must never be adopted
    as this run's tasks or results.

    Lease expiry is wall-clock mtime staleness, so coordinator and worker
    clocks must agree to within the lease timeout -- fine on one host or
    NFS; pick a generous timeout across machines.
    """

    def __init__(self, root: "str | pathlib.Path", *, lease_timeout: float = 30.0):
        self.root = pathlib.Path(root)
        self.lease_timeout = lease_timeout
        self.tasks_dir = self.root / "tasks"
        self.active_dir = self.root / "active"
        self.results_dir = self.root / "results"
        for directory in (self.tasks_dir, self.active_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
            # The coordinator owns the spool: leftover tasks, leases and
            # results from a previous sweep would otherwise be adopted as
            # this run's (workers would run stale tasks, and a stale
            # result whose id collides with a fresh task would settle it
            # with the wrong payload), so a new coordinator always starts
            # from an empty spool.
            for leftover in directory.iterdir():
                if not leftover.is_file():
                    continue
                try:
                    leftover.unlink()
                except FileNotFoundError:
                    pass
        # A leftover sentinel from a previous sweep would make fresh
        # workers exit on arrival.
        self._stop_path = self.root / "stop"
        try:
            self._stop_path.unlink()
        except FileNotFoundError:
            pass
        self._settled: set[str] = set()

    def publish(self, task: dict[str, Any]) -> None:
        self._write_json(self.tasks_dir / f"{task['id']}.json", task)

    def pump(self) -> list[tuple[str, dict[str, Any]]]:
        """Collect new results; steal stale leases back onto the queue."""
        settled: list[tuple[str, dict[str, Any]]] = []
        for path in sorted(self.results_dir.glob("*.json")):
            tid = path.stem
            if tid in self._settled:
                continue
            try:
                message = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue  # mid-rename race or damage; retry next pump
            self._settled.add(tid)
            settled.append((tid, message["outcome"]))
            for leftover in (self.tasks_dir / path.name, self.active_dir / path.name):
                try:
                    leftover.unlink()
                except FileNotFoundError:
                    pass
        stale_before = time.time() - self.lease_timeout
        for path in sorted(self.active_dir.glob("*.json")):
            if path.stem in self._settled:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
                continue
            try:
                if path.stat().st_mtime > stale_before:
                    continue
                task = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue  # claimed/heartbeat mid-scan; leave it
            task["attempt"] = int(task.get("attempt", 0)) + 1
            attempts = task["attempt"]
            if attempts >= _max_attempts(task):
                self._settled.add(path.stem)
                settled.append((path.stem, _lost_lease_outcome(task, attempts)))
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            else:
                # Steal: rewrite the active file with the attempt
                # charged, then rename that one file back onto the
                # queue.  The task lives in exactly one directory at
                # every instant -- publishing to ``tasks/`` first would
                # let a worker claim the re-queued copy (its rename
                # lands on the still-present active path) only to have
                # this sweep's unlink delete the claim.
                self._write_json(path, task)
                try:
                    os.replace(path, self.tasks_dir / path.name)
                except FileNotFoundError:
                    pass  # settled between the rewrite and the re-queue
        return settled

    def cancel_pending(self) -> int:
        dropped = 0
        for path in self.tasks_dir.glob("*.json"):
            try:
                path.unlink()
                dropped += 1
            except FileNotFoundError:
                pass
        return dropped

    def stop(self) -> None:
        self._stop_path.touch()

    def close(self) -> None:
        self.stop()

    def _write_json(self, path: pathlib.Path, payload: dict[str, Any]) -> None:
        atomic_write(path, json.dumps(payload, separators=(",", ":")))
