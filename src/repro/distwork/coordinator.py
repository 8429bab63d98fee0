"""Coordinator side of distributed sweeps: the lease ledger and its server.

The :class:`TaskBoard` is the one authoritative ledger: which tasks are
pending, which are leased (and how stale the lease's heartbeat is),
which have settled.  Its invariants carry the whole fault-tolerance
story:

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

:class:`TcpCoordinator` serves the ledger to workers: a threading TCP
server speaking the framed JSON protocol (:mod:`repro.distwork.protocol`);
worker disconnection releases its leases immediately, heartbeats extend
them.  It exposes a narrow surface to
:class:`~repro.experiments.distributed.DistributedExecutor`:
``publish`` / ``pump`` / ``cancel_pending`` / ``stop`` / ``close``.
"""

from __future__ import annotations

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
from repro.experiments.outcomes import RunFailure

__all__ = ["TaskBoard", "TcpCoordinator"]


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
    """Thread-safe pending/leased/settled ledger.

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
        handlers: set = self.server.handlers  # type: ignore[attr-defined]
        handlers.add(self)
        worker = "?"
        try:
            while True:
                message = recv_frame(self.request)
                if message is None:
                    break
                op = message.get("op")
                worker = str(message.get("worker", worker))
                if op == "hello":
                    if message.get("version") != PROTOCOL_VERSION:
                        # Its results would not decode here; the other
                        # connections are served on.
                        send_frame(self.request, {"op": "refused", "version": PROTOCOL_VERSION})
                        break
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
                        break  # the worker exits; serve it no more
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
            handlers.discard(self)


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
        self._server.handlers = set()  # type: ignore[attr-defined]
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
        """Stop, then release the port once every connected worker has
        been told to stop or has gone, waiting at most one heartbeat interval."""
        self.stop()
        deadline = time.monotonic() + self.board.lease_timeout / 3.0
        while self._server.handlers and time.monotonic() < deadline:  # type: ignore[attr-defined]
            time.sleep(0.05)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
