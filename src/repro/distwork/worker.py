"""The ``repro worker`` process: lease jobs, run them, report outcomes.

A worker is deliberately thin: all simulation, retry and fault-injection
semantics come from the existing resilient per-job path
(:func:`repro.experiments.parallel.run_job_outcome`), and the shared
content-addressed :class:`~repro.experiments.cache.RunCache` is both its
fast path (another worker may have produced the result already) and its
durable store (results survive the worker; the coordinator's copy of the
outcome is just the notification).

Lease semantics: the coordinator grants one task at a time and expects a
heartbeat at the advertised interval; a worker that dies mid-job simply
stops heartbeating and the task is re-queued for someone else.  The task
message carries ``attempt`` -- attempts charged by earlier dead leases --
and the in-process retry loop continues counting from there, so the
retry budget and the deterministic chaos schedule (``REPRO_CHAOS``
reaches this process through its environment; its lanes' children get
each decided fault) span lease boundaries as they span child respawns.

Two conditions interrupt a leased run the way a local lane would:

* ``policy.job_timeout`` -- when set, each attempt runs in a killable
  child on a :class:`~repro.experiments.executor.Lane`, the local
  executor's attempt runner; an attempt past its budget has its child
  killed and is charged a retryable ``timeout`` failure.  Without this
  the background heartbeat would keep a hung job's lease alive forever
  and stall the whole sweep.
* a **lost lease** -- a heartbeat answered ``lost`` means the task was
  stolen or settled elsewhere; the worker abandons the run (between
  attempts, or mid-attempt by killing the lane's child when a timeout is
  set) and leases fresh work instead of finishing a job whose result
  would be dropped.

The worker holds one persistent framed-JSON connection to the
coordinator; a background thread shares the socket under a lock to
heartbeat while the main thread simulates.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import Any, Callable

from repro.distwork.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatch,
    job_from_dict,
    outcome_to_dict,
    parse_endpoint,
    policy_from_dict,
    recv_frame,
    send_frame,
)
from repro.experiments.cache import RunCache
from repro.experiments.executor import Lane
from repro.experiments.outcomes import ExecutionInterrupted, JobOutcome
from repro.experiments.parallel import run_job_outcome

__all__ = [
    "EXIT_VERSION_MISMATCH",
    "execute_leased_job",
    "main",
    "run_supervisor",
    "run_worker",
]

# Exit status of a worker whose coordinator speaks another protocol
# version (sysexits.h's EX_CONFIG).  Respawning cannot help, so a
# supervisor stops on it instead.
EXIT_VERSION_MISMATCH = 78


def execute_leased_job(
    task: dict[str, Any],
    cache: RunCache | None,
    *,
    should_abandon: "Callable[[], bool] | None" = None,
) -> dict[str, Any]:
    """Run one leased task to a settled outcome message.

    Cache first: a hit (stored by a previous sweep or a sibling worker)
    settles as ``source="cache"`` without simulating.  A fresh run goes
    through the policy's retry loop starting past the attempts already
    charged to dead leases, and its result is stored to the shared cache
    *before* the outcome is reported -- if the report is lost, the work
    is not.

    When the policy sets ``job_timeout`` every attempt runs in a
    killable child on a :class:`~repro.experiments.executor.Lane`.
    ``should_abandon`` is polled between attempts -- and during them when
    a lane runs them -- and raises
    :class:`~repro.experiments.outcomes.ExecutionInterrupted` so the
    caller can drop a task whose lease was lost and request new work.
    """
    job = job_from_dict(task["job"])
    policy = policy_from_dict(task.get("policy", {}))
    if cache is not None:
        result = cache.load(job)
        if result is not None:
            outcome = JobOutcome(job=job, result=result, attempts=0, source="cache")
            return outcome_to_dict(outcome)
    lane: Lane | None = None
    if policy.job_timeout is not None:
        lane = Lane(
            policy.job_timeout, should_abandon, max_respawns=policy.max_pool_respawns
        )
    try:
        outcome = run_job_outcome(
            job,
            policy=policy,
            start_attempt=int(task.get("attempt", 0)),
            attempt_runner=lane,
            should_stop=should_abandon,
        )
    finally:
        if lane is not None:
            lane.kill()
    if cache is not None and outcome.ok:
        cache.store(job, outcome.result)
    return outcome_to_dict(outcome)


class _Connection:
    """One framed connection; a lock serializes whole request/response
    exchanges so the heartbeat thread and the main thread can share it."""

    def __init__(self, address: tuple[str, int], worker_id: str):
        self.sock = socket.create_connection(address, timeout=30.0)
        self.lock = threading.Lock()
        self.worker_id = worker_id
        try:
            reply = self.exchange({"op": "hello", "version": PROTOCOL_VERSION})
            if reply.get("op") != "welcome" or reply.get("version") != PROTOCOL_VERSION:
                raise VersionMismatch(
                    f"coordinator speaks protocol version {reply.get('version')!r}, "
                    f"this worker speaks version {PROTOCOL_VERSION}"
                )
        except BaseException:
            self.close()
            raise
        self.heartbeat_interval = float(reply.get("heartbeat", 5.0))

    def exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        with self.lock:
            send_frame(self.sock, dict(message, worker=self.worker_id))
            reply = recv_frame(self.sock)
        if reply is None:
            raise ProtocolError("coordinator closed the connection")
        return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def run_worker(
    endpoint: str,
    *,
    cache: RunCache | None = None,
    worker_id: str | None = None,
    poll: float = 0.2,
    idle_timeout: float | None = None,
    reconnect_window: float = 10.0,
    stop_event: "threading.Event | None" = None,
) -> int:
    """Serve jobs from the coordinator at ``endpoint`` (``host:port``)
    until stopped; returns jobs executed.

    Exits when the coordinator says stop, when ``idle_timeout`` seconds
    pass with nothing to do, when ``stop_event`` is set (in-process
    embedding, used by tests), or when the coordinator stays unreachable
    for ``reconnect_window`` seconds.  A malformed ``endpoint`` raises
    :class:`ValueError` before anything connects; a coordinator of another
    protocol version raises :class:`~repro.distwork.protocol.VersionMismatch`.
    """
    address = parse_endpoint(endpoint)
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    executed = 0
    conn: _Connection | None = None
    unreachable_since: float | None = None
    idle_since: float | None = None
    try:
        while True:
            if stop_event is not None and stop_event.is_set():
                return executed
            if conn is None:
                try:
                    conn = _Connection(address, worker_id)
                except (OSError, ProtocolError):
                    now = time.monotonic()
                    if unreachable_since is None:
                        unreachable_since = now
                    if now - unreachable_since >= reconnect_window:
                        return executed
                    time.sleep(min(poll, 0.5))
                    continue
                unreachable_since = None
            try:
                reply = conn.exchange({"op": "next"})
                op = reply.get("op")
                if op == "stop":
                    return executed
                if op == "idle":
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if idle_timeout is not None and now - idle_since >= idle_timeout:
                        return executed
                    time.sleep(poll)
                    continue
                if op != "task":
                    raise ProtocolError(f"expected task/idle/stop, got {op!r}")
                idle_since = None
                outcome = _run_task(conn, reply, cache)
                if outcome is None:
                    continue  # lease lost mid-run; the task settled elsewhere
                conn.exchange(
                    {"op": "done", "id": reply["id"], "outcome": outcome}
                )
                executed += 1
            except (OSError, ProtocolError):
                conn.close()
                conn = None  # reconnect; an in-flight lease will be stolen
    finally:
        if conn is not None:
            conn.close()


def _run_task(
    conn: _Connection, task: dict[str, Any], cache: RunCache | None
) -> "dict[str, Any] | None":
    """Execute under a background heartbeat on the shared connection.

    Returns ``None`` when a heartbeat came back ``lost`` -- the lease
    was stolen or the task settled elsewhere, so the run was abandoned
    and there is nothing to report.
    """
    done = threading.Event()
    lost = threading.Event()

    def beat() -> None:
        while not done.wait(conn.heartbeat_interval):
            try:
                reply = conn.exchange({"op": "heartbeat", "id": task["id"]})
            except (OSError, ProtocolError):
                return  # connection died; the main thread will notice
            except Exception:  # pragma: no cover - never kill the runner
                return
            if reply.get("op") == "lost":
                lost.set()
                return

    thread = threading.Thread(target=beat, name="distwork-heartbeat", daemon=True)
    thread.start()
    try:
        return execute_leased_job(task, cache, should_abandon=lost.is_set)
    except ExecutionInterrupted:
        return None
    finally:
        done.set()
        thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# Supervisor (``repro worker --supervise N``)
# ---------------------------------------------------------------------------


def run_supervisor(
    count: int,
    spawn: "Callable[[int], Any]",
    *,
    poll: float = 0.2,
    respawn_delay: float = 0.5,
    max_respawns: "int | None" = None,
    on_spawn: "Callable[[int, Any], None] | None" = None,
) -> int:
    """Keep ``count`` worker slots alive until each finishes cleanly.

    ``spawn(slot)`` starts one worker process (anything with the
    ``Popen`` interface: ``poll``/``terminate``/``kill``/``wait``).  A
    slot whose process exits 0 is *done* -- the coordinator said stop, or
    the idle timeout elapsed -- and is not restarted.  A process that
    dies any other way (crash, OOM-kill, SIGKILL) is respawned after
    ``respawn_delay`` seconds; whatever lease it held is re-queued by the
    coordinator's heartbeat timeout, so the sweep loses no work.  A
    process exiting :data:`EXIT_VERSION_MISMATCH` stops every slot and
    raises :class:`~repro.distwork.protocol.VersionMismatch`: another
    process of the same checkout would be refused the same way.

    ``max_respawns`` bounds total restarts (``None`` = unbounded; the
    respawn delay throttles crash loops either way).  Returns the number
    of respawns performed.  On interruption every live child is
    terminated (then killed if it lingers) before the exception
    propagates.
    """
    if count <= 0:
        raise ValueError("supervisor needs at least one worker slot")
    active: dict[int, Any] = {}
    pending: dict[int, float] = {}
    respawns = 0

    def start(slot: int) -> None:
        process = spawn(slot)
        active[slot] = process
        if on_spawn is not None:
            on_spawn(slot, process)

    try:
        for slot in range(count):
            start(slot)
        while active or pending:
            now = time.monotonic()
            for slot, process in list(active.items()):
                code = process.poll()
                if code is None:
                    continue
                del active[slot]
                if code == 0:
                    continue  # clean exit: the slot's work is finished
                if code == EXIT_VERSION_MISMATCH:
                    raise VersionMismatch(
                        f"worker {slot} was refused the coordinator's protocol "
                        f"version (exit {code}); not respawning"
                    )
                if max_respawns is not None and respawns >= max_respawns:
                    continue
                pending[slot] = now + respawn_delay
            for slot, deadline in list(pending.items()):
                if now >= deadline:
                    del pending[slot]
                    # Re-check the cap here: several slots can die in one
                    # sweep of the poll loop and be queued together.
                    if max_respawns is not None and respawns >= max_respawns:
                        continue
                    start(slot)
                    respawns += 1
            if active or pending:
                time.sleep(poll)
        return respawns
    except BaseException:
        for process in active.values():
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead race
                pass
        for process in active.values():
            try:
                process.wait(timeout=5.0)
            except Exception:
                try:
                    process.kill()
                except Exception:  # pragma: no cover - already-dead race
                    pass
        raise


def _spawn_worker_process(argv: list[str]):
    """Start one ``repro worker`` child with this interpreter."""
    import subprocess

    return subprocess.Popen([sys.executable, "-m", "repro", "worker", *argv])


def _supervise_main(args: argparse.Namespace) -> int:
    """Run ``--supervise N``: spawn N single-worker children and babysit."""
    base_id = args.id or f"{socket.gethostname()}-{os.getpid()}"
    child_argv = [args.endpoint]
    if args.cache_dir is not None:
        child_argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        child_argv += ["--no-cache"]
    child_argv += ["--poll", str(args.poll)]
    if args.idle_timeout is not None:
        child_argv += ["--idle-timeout", str(args.idle_timeout)]
    child_argv += ["--reconnect-window", str(args.reconnect_window)]

    def spawn(slot: int):
        return _spawn_worker_process(child_argv + ["--id", f"{base_id}-w{slot}"])

    def announce(slot: int, process) -> None:
        # One parseable line per (re)spawn; tests and ops tooling use the
        # pid to target individual workers.
        print(f"supervisor: worker {slot} pid {process.pid}", flush=True)

    try:
        respawns = run_supervisor(
            args.supervise,
            spawn,
            poll=min(args.poll, 0.5),
            respawn_delay=args.respawn_delay,
            max_respawns=args.max_respawns,
            on_spawn=announce,
        )
    except VersionMismatch as exc:
        print(f"repro worker: supervisor stopped: {exc}", file=sys.stderr)
        return EXIT_VERSION_MISMATCH
    print(f"supervisor done: {args.supervise} worker(s), {respawns} respawn(s)")
    return 0


# ---------------------------------------------------------------------------
# CLI (``repro worker``)
# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description=(
            "Serve simulation jobs leased from a sweep coordinator "
            "listening on ENDPOINT (host:port)."
        ),
    )
    parser.add_argument("endpoint", help="coordinator host:port")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="shared result cache directory (default: the repo-wide default)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run without the shared result cache"
    )
    parser.add_argument(
        "--id", default=None, help="worker identity (default: hostname-pid)"
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between idle polls (default: 0.2)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: run until stopped)",
    )
    parser.add_argument(
        "--reconnect-window",
        type=float,
        default=10.0,
        help=(
            "exit after the coordinator stays unreachable this many "
            "seconds (default: 10; raise it to start workers before the "
            "sweep)"
        ),
    )
    parser.add_argument(
        "--supervise",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run N worker child processes and respawn any that die "
            "abnormally; a child exiting cleanly (stop/idle) is done "
            "(default: 0 = serve jobs in this process)"
        ),
    )
    parser.add_argument(
        "--respawn-delay",
        type=float,
        default=0.5,
        help="supervisor: seconds to wait before restarting a dead worker",
    )
    parser.add_argument(
        "--max-respawns",
        type=int,
        default=None,
        help="supervisor: stop restarting after this many respawns total",
    )
    args = parser.parse_args(argv)
    try:
        parse_endpoint(args.endpoint)
    except ValueError as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return 2
    if args.supervise:
        return _supervise_main(args)
    cache = None if args.no_cache else RunCache(args.cache_dir)
    try:
        executed = run_worker(
            args.endpoint,
            cache=cache,
            worker_id=args.id,
            poll=args.poll,
            idle_timeout=args.idle_timeout,
            reconnect_window=args.reconnect_window,
        )
    except VersionMismatch as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return EXIT_VERSION_MISMATCH
    print(f"worker done: {executed} job(s) executed")
    return 0
