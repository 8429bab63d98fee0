"""Distributed sweeps: coordinator + ``repro worker`` end to end.

The acceptance property mirrors the parallel/chaos suites: results
produced through any number of workers, any join order, stolen leases
and injected faults must be bit-identical to a serial in-process run.
The shared content-addressed :class:`RunCache` is the result store, so
at-least-once execution (work stealing, duplicated runs) is benign by
construction; these tests drive the TCP coordinator, kill a real worker
process mid-sweep, corrupt a cache entry, and interrupt/resume through
the sweep manifest to prove it.
"""

from __future__ import annotations

import gc
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distwork import coordinator as coordinator_module
from repro.distwork.coordinator import TaskBoard, TcpCoordinator
from repro.distwork.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatch,
    job_from_dict,
    job_to_dict,
    outcome_to_dict,
    parse_endpoint,
    policy_from_dict,
    policy_to_dict,
    recv_frame,
    send_frame,
)
from repro.distwork.worker import (
    EXIT_VERSION_MISMATCH,
    _Connection,
    execute_leased_job,
    main as worker_main,
    run_supervisor,
    run_worker,
)
from repro.experiments.cache import RunCache, job_key
from repro.experiments.distributed import DistributedExecutor
from repro.experiments.harness import Workbench
from repro.experiments.manifest import SweepManifest, default_manifest_dir
from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    JobOutcome,
    RunFailure,
)
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec, spec_hash
from repro.testing.chaos import (
    ChaosConfig,
    FaultRule,
    corrupt_cache_entry,
    uninstall,
)
from repro.workloads.suite import get_kernel

REPO = pathlib.Path(__file__).resolve().parent.parent
INSTRUCTIONS = 400
KERNELS = ("gcc", "mcf")


@pytest.fixture(autouse=True)
def _no_leftover_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    uninstall()
    yield
    uninstall()


def make_bench(cache=None, **kwargs):
    kwargs.setdefault("instructions", INSTRUCTIONS)
    kwargs.setdefault("benchmarks", [get_kernel(k) for k in KERNELS])
    return Workbench(cache=cache, **kwargs)


def make_jobs(bench, policies=("l", "s")):
    return [
        bench.job(get_kernel(kernel), bench.clustered(2), policy)
        for kernel in KERNELS
        for policy in policies
    ]


def tcp_executor(**kwargs):
    """A distributed executor already bound to an ephemeral local port;
    point workers at its ``endpoint``."""
    executor = DistributedExecutor("127.0.0.1:0", **kwargs)
    executor._ensure_transport()
    return executor


def start_worker_threads(
    endpoint,
    count,
    *,
    cache_root=None,
    poll=0.01,
    delays=None,
    reconnect_window=10.0,
):
    """In-process workers (threads): returns (threads, counts, stop_event)."""
    stop = threading.Event()
    counts = [0] * count

    def serve(index: int) -> None:
        if delays is not None and delays[index]:
            time.sleep(delays[index])
        cache = RunCache(cache_root) if cache_root is not None else None
        counts[index] = run_worker(
            endpoint,
            cache=cache,
            worker_id=f"t{index}",
            poll=poll,
            reconnect_window=reconnect_window,
            stop_event=stop,
        )

    threads = [
        threading.Thread(target=serve, args=(i,), daemon=True) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads, counts, stop


def stop_worker_threads(executor, threads, stop):
    executor.close()  # tells workers to exit at their next poll
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


# ---------------------------------------------------------------------------
# Protocol and ledger units
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)
        assert parse_endpoint("localhost:0") == ("localhost", 0)
        assert parse_endpoint("localhost:65535") == ("localhost", 65535)

    @pytest.mark.parametrize(
        "endpoint",
        [
            "",
            "/tmp/spool",
            "host:abc",
            ":7070",
            "host:",
            "127.0.0.1:70000",
            "127.0.0.1:-1",
        ],
    )
    def test_malformed_endpoint_is_rejected(self, endpoint):
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint(endpoint)
        with pytest.raises(ValueError, match="host:port"):
            DistributedExecutor(endpoint)

    def test_job_round_trip(self):
        bench = make_bench()
        for job in make_jobs(bench):
            assert job_from_dict(job_to_dict(job)) == job

    def test_policy_round_trip(self):
        policy = ExecutionPolicy(max_retries=5, job_timeout=2.0, fail_fast=True)
        assert policy_from_dict(policy_to_dict(policy)) == policy
        assert policy_from_dict({}) == ExecutionPolicy()

    def test_framing_and_eof(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "hello", "n": 1})
            assert recv_frame(b) == {"op": "hello", "n": 1}
            a.close()
            assert recv_frame(b) is None  # clean EOF at a frame boundary
        finally:
            b.close()

    def test_mid_frame_eof_is_an_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff{")  # header promises more bytes
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_hello_of_version_1_is_refused(self):
        """A version 1 worker would send per-record results this side
        cannot decode: it is refused and its connection closed, while a
        worker of the current version is still welcome."""
        coordinator = TcpCoordinator("127.0.0.1", 0)
        try:
            with socket.create_connection(coordinator.address, timeout=10.0) as old:
                send_frame(old, {"op": "hello", "worker": "old", "version": 1})
                assert recv_frame(old) == {"op": "refused", "version": PROTOCOL_VERSION}
                assert recv_frame(old) is None
            with socket.create_connection(coordinator.address, timeout=10.0) as new:
                send_frame(
                    new, {"op": "hello", "worker": "new", "version": PROTOCOL_VERSION}
                )
                assert recv_frame(new)["op"] == "welcome"
        finally:
            coordinator.close()

    def test_worker_refused_by_coordinator_does_not_reconnect(self, monkeypatch):
        monkeypatch.setattr(
            coordinator_module, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1
        )
        coordinator = TcpCoordinator("127.0.0.1", 0)
        host, port = coordinator.address
        try:
            start = time.monotonic()
            with pytest.raises(VersionMismatch, match=f"version {PROTOCOL_VERSION + 1}"):
                run_worker(f"{host}:{port}", reconnect_window=30.0)
            assert time.monotonic() - start < 10.0
        finally:
            coordinator.close()

    def test_worker_cli_exits_nonzero_on_a_version_1_welcome(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as server:

            def welcome_as_version_1() -> None:
                conn, _ = server.accept()
                with conn:
                    recv_frame(conn)
                    send_frame(conn, {"op": "welcome", "version": 1, "heartbeat": 1.0})

            peer = threading.Thread(target=welcome_as_version_1, daemon=True)
            peer.start()
            host, port = server.getsockname()[:2]
            argv = [f"{host}:{port}", "--no-cache", "--reconnect-window", "30"]
            assert worker_main(argv) == EXIT_VERSION_MISMATCH
            peer.join(timeout=5)
            assert not peer.is_alive()
        err = capsys.readouterr().err
        assert "version 1" in err and f"version {PROTOCOL_VERSION}" in err


class TestTaskBoard:
    def _task(self, tid="t1", max_retries=2):
        return {
            "id": tid,
            "job": {"kernel": "gcc"},
            "policy": {"max_retries": max_retries},
            "attempt": 0,
        }

    def test_expired_lease_requeues_with_attempt_charged(self):
        board = TaskBoard(lease_timeout=0.0)
        board.add(self._task())
        assert board.claim("w1")["attempt"] == 0
        board.reap_expired()
        stolen = board.claim("w2")
        assert stolen is not None and stolen["attempt"] == 1

    def test_leases_dying_past_budget_settle_as_worker_lost(self):
        board = TaskBoard(lease_timeout=0.0)
        board.add(self._task(max_retries=1))
        for _ in range(2):  # max_retries + 1 lease deaths
            assert board.claim("w") is not None
            board.reap_expired()
        assert board.claim("w") is None
        ((tid, outcome),) = [board.results.get_nowait()]
        assert tid == "t1"
        assert outcome["failure"]["error_type"] == "WorkerLost"
        assert outcome["failure"]["kind"] == "crash"

    def test_complete_settles_at_most_once(self):
        board = TaskBoard(lease_timeout=60.0)
        board.add(self._task())
        board.claim("w1")
        assert board.complete("t1", {"ok": True})
        assert not board.complete("t1", {"ok": True})  # late duplicate dropped
        board.release_worker("w1")  # no revival after settle
        assert board.claim("w2") is None

    def test_stolen_task_completed_by_its_first_lease_settles_once(self):
        board = TaskBoard(lease_timeout=0.0)
        board.add(self._task())
        board.claim("w1")
        board.reap_expired()  # stolen back onto the queue
        assert board.complete("t1", {"ok": True})  # the slow lease finishes
        assert board.claim("w2") is None  # never leased again
        assert board.results.qsize() == 1

    def test_disconnected_worker_lease_requeues_with_attempt_charged(self):
        board = TaskBoard(lease_timeout=60.0)
        board.add(self._task("a"))
        board.add(self._task("b"))
        assert board.claim("w1")["id"] == "a"
        assert board.claim("w2")["id"] == "b"
        board.release_worker("w1")
        requeued = board.claim("w3")
        assert requeued is not None
        assert requeued["id"] == "a" and requeued["attempt"] == 1
        assert board.claim("w3") is None  # w2's live lease is untouched

    def test_cancel_pending_drops_unleased_tasks(self):
        board = TaskBoard(lease_timeout=60.0)
        board.add(self._task("a"))
        board.add(self._task("b"))
        board.claim("w1")
        assert board.cancel_pending() == 1
        assert board.claim("w1") is None


# ---------------------------------------------------------------------------
# A reused endpoint must never leak a previous run
# ---------------------------------------------------------------------------


class TestSpoolHygiene:
    def test_task_ids_are_scoped_per_executor(self):
        first = DistributedExecutor("127.0.0.1:0")
        second = DistributedExecutor("127.0.0.1:0")
        assert first._nonce != second._nonce

    def test_reused_spool_reexecutes_instead_of_adopting_results(self):
        """Sweep A runs on a port; a later sweep B binds the same port
        (different jobs!) and must execute its own jobs, not settle them
        with A's outcomes -- a late report of A's task is dropped."""
        from repro.experiments.parallel import execute_job

        bench = make_bench()
        jobs_a = make_jobs(bench, policies=("l",))
        first = tcp_executor(poll=0.01)
        threads, _, stop = start_worker_threads(first.endpoint, 1)
        try:
            outcomes_a = first.execute(jobs_a)
            stale_ids = list(first._transport.board._tasks)
        finally:
            stop_worker_threads(first, threads, stop)
        assert all(outcome.ok for outcome in outcomes_a)

        jobs_b = make_jobs(bench, policies=("s",))
        second = DistributedExecutor(first.endpoint, poll=0.01)
        board = second._ensure_transport().board
        assert second.endpoint == first.endpoint
        for tid, outcome in zip(stale_ids, outcomes_a):
            assert not board.complete(tid, outcome_to_dict(outcome))
        threads2, counts2, stop2 = start_worker_threads(second.endpoint, 1)
        try:
            outcomes_b = second.execute(jobs_b)
        finally:
            stop_worker_threads(second, threads2, stop2)
        assert sum(counts2) == len(jobs_b)  # really executed, not adopted
        for job, outcome in zip(jobs_b, outcomes_b):
            assert outcome.ok and outcome.source == "run"
            assert outcome.result == execute_job(job)

    def test_settle_rejects_foreign_job_payload(self):
        bench = make_bench()
        mine, other = make_jobs(bench)[:2]
        executor = DistributedExecutor("127.0.0.1:0")
        failure = RunFailure(
            kind="error", error_type="X", message="m", attempts=1, elapsed=0.0
        )
        foreign = outcome_to_dict(JobOutcome(job=other, failure=failure, attempts=1))
        with pytest.raises(ProtocolError, match="different job"):
            executor._settle(foreign, mine, None)
        ours = outcome_to_dict(JobOutcome(job=mine, failure=failure, attempts=1))
        settled = executor._settle(ours, mine, None)
        assert settled.job is mine and not settled.ok


# ---------------------------------------------------------------------------
# job_timeout enforcement on distributed workers
# ---------------------------------------------------------------------------


class TestDistributedJobTimeout:
    def test_hung_attempt_is_killed_and_retried(self, monkeypatch):
        """A first attempt that hangs (30s chaos sleep) is killed at the
        policy's job_timeout and charged a retryable ``timeout``; the
        retry runs clean.  Before enforcement the worker's heartbeat
        kept the hung job's lease alive for the full hang."""
        chaos = ChaosConfig(rules=(FaultRule(mode="hang", attempts=(1,)),))
        monkeypatch.setenv("REPRO_CHAOS", chaos.env_value())
        executor = tcp_executor(poll=0.01)
        bench = make_bench()
        job = make_jobs(bench, policies=("l",))[0]
        threads, counts, stop = start_worker_threads(executor.endpoint, 1)
        start = time.monotonic()
        try:
            (outcome,) = executor.execute(
                [job], policy=ExecutionPolicy(max_retries=2, job_timeout=0.5)
            )
        finally:
            stop_worker_threads(executor, threads, stop)
        assert outcome.ok
        assert outcome.attempts == 2  # attempt 1 timed out, attempt 2 clean
        assert time.monotonic() - start < 20.0  # nowhere near the 30s hang
        assert sum(counts) == 1


# ---------------------------------------------------------------------------
# Lost leases: the coordinator says so, the worker abandons the run
# ---------------------------------------------------------------------------


class TestLostLease:
    def test_heartbeat_replies_lost_after_steal(self):
        coordinator = TcpCoordinator("127.0.0.1", 0, lease_timeout=0.0)
        try:
            coordinator.publish(
                {
                    "id": "t1",
                    "job": {"kernel": "gcc"},
                    "policy": {"max_retries": 5},
                    "attempt": 0,
                }
            )
            sock = socket.create_connection(coordinator.address, timeout=10.0)
            try:
                send_frame(
                    sock, {"op": "hello", "worker": "w1", "version": PROTOCOL_VERSION}
                )
                assert recv_frame(sock)["op"] == "welcome"
                send_frame(sock, {"op": "next", "worker": "w1"})
                assert recv_frame(sock)["op"] == "task"
                send_frame(sock, {"op": "heartbeat", "worker": "w1", "id": "t1"})
                assert recv_frame(sock)["op"] == "ok"  # lease still ours
                coordinator.board.reap_expired()  # timeout 0: stolen at once
                send_frame(sock, {"op": "heartbeat", "worker": "w1", "id": "t1"})
                assert recv_frame(sock)["op"] == "lost"
            finally:
                sock.close()
        finally:
            coordinator.close()

    def test_execute_leased_job_abandons_when_told(self):
        bench = make_bench()
        job = make_jobs(bench)[0]
        task = {"id": "t", "job": job_to_dict(job), "policy": {}, "attempt": 0}
        with pytest.raises(ExecutionInterrupted):
            execute_leased_job(task, None, should_abandon=lambda: True)

    def test_tcp_worker_abandons_hung_job_whose_task_settled(self, monkeypatch):
        """A worker stuck in a hung attempt learns via a ``lost``
        heartbeat that its task settled elsewhere, kills the attempt and
        exits idle instead of sleeping out the 30s hang (and instead of
        reporting a result that would be dropped)."""
        chaos = ChaosConfig(rules=(FaultRule(mode="hang"),))
        monkeypatch.setenv("REPRO_CHAOS", chaos.env_value())
        coordinator = TcpCoordinator("127.0.0.1", 0, lease_timeout=0.6)
        bench = make_bench()
        job = make_jobs(bench)[0]
        coordinator.publish(
            {
                "id": "t1",
                "job": job_to_dict(job),
                # job_timeout activates the killable child; generous so
                # the lost lease (not the timeout) ends the attempt.
                "policy": {"max_retries": 0, "job_timeout": 20.0},
                "attempt": 0,
            }
        )
        executed = []
        host, port = coordinator.address
        thread = threading.Thread(
            target=lambda: executed.append(
                run_worker(
                    f"{host}:{port}",
                    worker_id="w1",
                    poll=0.02,
                    idle_timeout=0.5,
                )
            ),
            daemon=True,
        )
        start = time.monotonic()
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while not coordinator.board._leases:
                assert time.monotonic() < deadline, "worker never claimed"
                time.sleep(0.01)
            # The task settles elsewhere (e.g. a steal finished first).
            assert coordinator.board.complete("t1", {"outcome": "elsewhere"})
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert executed == [0]  # abandoned: nothing reported as executed
        assert time.monotonic() - start < 25.0  # did not sleep out the hang


# ---------------------------------------------------------------------------
# End to end: bit-identical to serial, shared cache reused
# ---------------------------------------------------------------------------


class TestTransportsMatchSerial:
    def test_tcp_transport_and_shared_cache_reuse(self, tmp_path):
        from repro.experiments.parallel import execute_job

        serial = make_bench()
        want = [execute_job(job) for job in make_jobs(serial)]

        executor = tcp_executor(poll=0.01)
        bench = make_bench(cache=RunCache(tmp_path / "cache"), executor=executor)
        jobs = make_jobs(bench)
        threads, counts, stop = start_worker_threads(
            executor.endpoint, 3, cache_root=tmp_path / "cache"
        )
        try:
            assert bench.prefetch(jobs) == len(jobs)
            for job, expected in zip(jobs, want):
                got = bench.result_for(job)
                assert got is not None and expected == got
            # Same transport, second batch: everything is already in the
            # workbench's memory cache, so nothing is even published.
            assert bench.prefetch(jobs) == 0
            # A fresh bench over the same shared cache settles from disk.
            bench2 = make_bench(cache=RunCache(tmp_path / "cache"))
            assert bench2.prefetch(make_jobs(bench2)) == 0
        finally:
            stop_worker_threads(executor, threads, stop)
        assert sum(counts) == len(jobs)


# ---------------------------------------------------------------------------
# The acceptance sweep: figure 14, three real workers, chaos injected
# ---------------------------------------------------------------------------


class TestChaosAcceptance:
    def test_figure14_three_process_workers_kill_and_corruption(
        self, tmp_path
    ):
        """Scaled-down acceptance run: Figure 14 through 3 ``repro
        worker`` processes with a 30% injected crash rate in the workers,
        one worker SIGKILLed mid-sweep (its lease is stolen), and one
        pre-corrupted cache entry (quarantined and recomputed) -- output
        identical to the fault-free serial figure."""
        from repro.experiments.fig14 import run_figure14

        kernels = [get_kernel(k) for k in KERNELS]
        clean_bench = Workbench(instructions=INSTRUCTIONS, benchmarks=kernels)
        clean = str(run_figure14(clean_bench))

        cache = RunCache(tmp_path / "cache")
        executor = DistributedExecutor("127.0.0.1:0", lease_timeout=2.0, poll=0.01)
        executor._ensure_transport()
        bench = Workbench(
            instructions=INSTRUCTIONS,
            benchmarks=kernels,
            cache=cache,
            executor=executor,
        )
        # Pre-corrupt one entry: store a real result, then damage it.
        spec = get_kernel("gcc")
        victim = bench.job(spec, bench.clustered(2), "focused")
        cache.store(victim, clean_bench.run(spec, clean_bench.clustered(2), "focused"))
        corrupt_cache_entry(cache, victim, mode="truncate")

        env = dict(
            os.environ,
            PYTHONPATH=str(REPO / "src"),
            REPRO_CHAOS=ChaosConfig(crash_rate=0.3, seed=11).env_value(),
        )
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker", executor.endpoint,
                    "--cache-dir", str(cache.root), "--id", f"p{i}",
                    "--poll", "0.02",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for i in range(3)
        ]
        killer = threading.Timer(1.5, lambda: procs[0].send_signal(signal.SIGKILL))
        killer.daemon = True
        try:
            killer.start()
            with pytest.warns(RuntimeWarning, match="quarantined"):
                chaotic = str(run_figure14(bench))
        finally:
            killer.cancel()
            executor.close()
            for proc in procs:
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5)
        assert chaotic == clean
        assert cache.quarantined == 1


# ---------------------------------------------------------------------------
# The worker supervisor (``repro worker --supervise N``)
# ---------------------------------------------------------------------------


class _FakeProc:
    def __init__(self, code):
        self.code = code

    def poll(self):
        return self.code


class TestSupervisor:
    def test_respawns_abnormal_exit_once(self):
        spawned = []

        def spawn(slot):
            # First incarnation dies like a SIGKILL; the respawn is clean.
            proc = _FakeProc(-signal.SIGKILL if not spawned else 0)
            spawned.append(proc)
            return proc

        respawns = run_supervisor(1, spawn, poll=0.005, respawn_delay=0.0)
        assert respawns == 1
        assert len(spawned) == 2

    def test_clean_exit_is_not_respawned(self):
        spawned = []

        def spawn(slot):
            proc = _FakeProc(0)
            spawned.append(proc)
            return proc

        assert run_supervisor(3, spawn, poll=0.005) == 0
        assert len(spawned) == 3

    def test_max_respawns_bounds_a_crash_loop(self):
        spawned = []

        def spawn(slot):
            proc = _FakeProc(1)
            spawned.append(proc)
            return proc

        respawns = run_supervisor(
            2, spawn, poll=0.005, respawn_delay=0.0, max_respawns=3
        )
        assert respawns == 3
        assert len(spawned) == 5  # 2 initial + 3 respawns

    def test_version_refusal_stops_every_slot(self):
        class Live(_FakeProc):
            terminated = False

            def terminate(self):
                self.terminated = True
                self.code = -signal.SIGTERM

            def wait(self, timeout=None):
                return self.code

        live = Live(None)
        procs = iter([_FakeProc(EXIT_VERSION_MISMATCH), live])
        with pytest.raises(VersionMismatch, match="worker 0"):
            run_supervisor(
                2, lambda slot: next(procs), poll=0.005, respawn_delay=0.0, max_respawns=3
            )
        assert live.terminated

    def test_supervised_worker_refused_by_version_is_not_respawned(self):
        """A coordinator that welcomes every worker with version 1: the one
        child exits on the mismatch, and the supervisor neither respawns it
        nor reports success."""
        stop = threading.Event()
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(0.2)

            def welcome_as_version_1() -> None:
                while not stop.is_set():
                    try:
                        conn, _ = server.accept()
                    except OSError:
                        continue
                    with conn:
                        recv_frame(conn)
                        send_frame(conn, {"op": "welcome", "version": 1, "heartbeat": 1.0})

            peer = threading.Thread(target=welcome_as_version_1, daemon=True)
            peer.start()
            host, port = server.getsockname()[:2]
            try:
                done = subprocess.run(
                    [
                        sys.executable, "-m", "repro", "worker", f"{host}:{port}",
                        "--no-cache", "--supervise", "1", "--max-respawns", "3",
                        "--respawn-delay", "0.05", "--reconnect-window", "30",
                    ],
                    env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
            finally:
                stop.set()
                peer.join(timeout=5)
        spawned = [
            line for line in done.stdout.splitlines() if line.startswith("supervisor: worker")
        ]
        assert len(spawned) == 1, done.stdout
        assert done.returncode == EXIT_VERSION_MISMATCH
        assert "version 1" in done.stderr and "not respawning" in done.stderr
        assert "supervisor done" not in done.stdout

    def test_sigkilled_worker_is_respawned_and_sweep_finishes(self, tmp_path):
        """SIGKILL a supervised worker mid-sweep: the supervisor respawns
        it, the coordinator steals the dead lease, and the respawned
        worker finishes the sweep -- no outcome is lost."""
        cache = RunCache(tmp_path / "cache")
        executor = tcp_executor(lease_timeout=1.0, poll=0.01)
        board = executor._transport.board
        bench = make_bench(cache=cache, executor=executor)
        jobs = make_jobs(bench)

        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        supervisor = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker", executor.endpoint,
                "--cache-dir", str(cache.root), "--supervise", "1",
                "--poll", "0.02", "--respawn-delay", "0.1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

        def read_pid() -> int:
            line = supervisor.stdout.readline()
            assert "pid" in line, f"unexpected supervisor output: {line!r}"
            return int(line.rsplit(" ", 1)[1])

        killed = threading.Event()

        def kill_once_leased(pid: int) -> None:
            # Wait until the worker actually holds a lease, then kill it
            # mid-run (falling back to a timed kill if leases are too
            # quick to observe).
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if board._leases:
                    break
                time.sleep(0.01)
            os.kill(pid, signal.SIGKILL)
            killed.set()

        try:
            first_pid = read_pid()
            killer = threading.Thread(
                target=kill_once_leased, args=(first_pid,), daemon=True
            )
            killer.start()
            outcomes = executor.execute(
                jobs, policy=ExecutionPolicy(max_retries=3)
            )
            killer.join(timeout=20.0)
            assert killed.is_set()
            assert all(out.ok for out in outcomes)
            second_pid = read_pid()  # the respawned worker
            assert second_pid != first_pid
        finally:
            executor.close()  # stop reply: the respawn exits 0, supervisor ends
            try:
                supervisor.wait(timeout=20)
            except subprocess.TimeoutExpired:
                supervisor.kill()
                supervisor.wait(timeout=5)
            supervisor.stdout.close()
        assert supervisor.returncode == 0


# ---------------------------------------------------------------------------
# Interrupt / resume through the sweep manifest
# ---------------------------------------------------------------------------


class TestManifestResume:
    def test_interrupted_distributed_sweep_resumes(self, tmp_path):
        spec = ExperimentSpec(
            name="dist-resume",
            sweeps=(SweepSpec((MachineSpec(2),), ("l", "s")),),
            workloads=[{"kernel": k} for k in KERNELS],
            instructions=INSTRUCTIONS,
        )
        serial_bench = make_bench()
        from repro.experiments.sweep import run_spec

        want = str(run_spec(serial_bench, spec))

        cache = RunCache(tmp_path / "cache")
        manifest = SweepManifest.open(
            default_manifest_dir(cache.root), spec_hash(spec), spec.name
        )
        executor = tcp_executor(poll=0.01)
        bench = make_bench(cache=cache, executor=executor)
        jobs = spec.jobs(bench)
        threads, _, stop = start_worker_threads(
            executor.endpoint, 2, cache_root=cache.root
        )
        settled = []

        def record(outcome):
            manifest.record(job_key(outcome.job), outcome)
            manifest.save()
            settled.append(outcome)

        try:
            with pytest.raises(ExecutionInterrupted, match="distributed"):
                bench.prefetch(
                    jobs, on_outcome=record, should_stop=lambda: len(settled) >= 2
                )
        finally:
            manifest.save(force=True)
            stop_worker_threads(executor, threads, stop)
        assert 2 <= len(settled) < len(jobs)

        # Resume on a fresh bench/port: the manifest reports what was
        # already journaled and the shared cache supplies those results.
        resumed_manifest = SweepManifest.open(
            default_manifest_dir(cache.root), spec_hash(spec), spec.name
        )
        assert len(resumed_manifest.resumed) == len(settled)
        executor2 = tcp_executor(poll=0.01)
        bench2 = make_bench(cache=RunCache(cache.root), executor=executor2)
        threads2, _, stop2 = start_worker_threads(
            executor2.endpoint, 2, cache_root=cache.root
        )
        try:
            figure = run_spec(bench2, spec, resumed_manifest)
        finally:
            stop_worker_threads(executor2, threads2, stop2)
        assert any(note.startswith("resumed:") for note in figure.notes)
        figure.notes = [n for n in figure.notes if not n.startswith("resumed:")]
        assert str(figure) == want
        # Jobs the shared cache satisfied on resume are never re-journaled
        # (same as the local path: the prefetch cache pre-scan bypasses
        # on_outcome), so the manifest holds at least the interrupted
        # run's record and nothing was re-executed.
        assert resumed_manifest.summary()["completed"] >= len(settled)
        assert bench2.exec_stats.executed == 0


class _OnePumpTransport:
    """A coordinator stub whose first ``pump()`` settles every task."""

    def __init__(self):
        self.tasks: list[dict] = []
        self.cancelled = False

    def publish(self, task):
        self.tasks.append(task)

    def pump(self):
        failure = RunFailure(
            kind="error", error_type="X", message="m", attempts=1, elapsed=0.0
        )
        settled = [
            (
                task["id"],
                outcome_to_dict(
                    JobOutcome(job=job_from_dict(task["job"]), failure=failure, attempts=1)
                ),
            )
            for task in self.tasks
        ]
        self.tasks = []
        return settled

    def cancel_pending(self):
        self.cancelled = True
        return 0

    def close(self):
        pass


class TestStopPolling:
    def test_stop_is_polled_between_outcomes_of_one_pump(self):
        jobs = make_jobs(make_bench())
        executor = DistributedExecutor("127.0.0.1:0")
        executor._transport = transport = _OnePumpTransport()
        delivered = []
        with pytest.raises(ExecutionInterrupted, match="distributed"):
            executor.execute(
                jobs,
                on_outcome=delivered.append,
                should_stop=lambda: len(delivered) >= 2,
            )
        assert len(delivered) == 2
        assert transport.cancelled


_CLOSING_COORDINATOR = """
import sys

from repro.distwork.coordinator import TcpCoordinator

coordinator = TcpCoordinator("127.0.0.1", 0)
print(coordinator.address[1], flush=True)
sys.stdin.readline()
coordinator.close()
"""


class TestStopReachesWorkers:
    def test_an_idle_worker_hears_stop_from_a_coordinator_that_exits(self):
        # The coordinator's process exits as soon as close() returns, so
        # close() must wait for the worker's next poll to tell it to stop;
        # otherwise the worker finds the port gone and waits out its
        # reconnect window.
        stop = threading.Event()
        returned: list[float] = []

        def serve(port: int) -> None:
            run_worker(
                f"127.0.0.1:{port}", poll=2.0, reconnect_window=8.0, stop_event=stop
            )
            returned.append(time.monotonic())

        with subprocess.Popen(
            [sys.executable, "-c", _CLOSING_COORDINATOR],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                thread = threading.Thread(
                    target=serve, args=(int(proc.stdout.readline()),), daemon=True
                )
                thread.start()
                time.sleep(0.5)  # connected, polled once, now idle until ~2 s
                closed = time.monotonic()
                proc.stdin.write("close\n")
                proc.stdin.flush()
                thread.join(timeout=15)
                assert returned, "the worker never returned"
                assert returned[0] - closed < 4.0  # its next poll, not the window
                assert proc.wait(timeout=10) == 0
            finally:
                stop.set()
                if proc.poll() is None:
                    proc.kill()

    def test_a_failed_handshake_closes_the_socket(self):
        with socket.create_server(("127.0.0.1", 0)) as server:

            def accept_and_hang_up() -> None:
                conn, _ = server.accept()
                conn.close()

            peer = threading.Thread(target=accept_and_hang_up, daemon=True)
            peer.start()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises((OSError, ProtocolError)):
                    _Connection(server.getsockname()[:2], "w")
                gc.collect()
            peer.join(timeout=5)
        assert not peer.is_alive()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestSeededCli:
    def test_seeds_run_on_the_distributed_workers(self, tmp_path, capsys):
        from repro.cli import main

        spec = ExperimentSpec(
            name="dist-seeds",
            sweeps=(SweepSpec((MachineSpec(2),), ("l", "s")),),
            workloads=[{"kernel": k} for k in KERNELS],
            instructions=INSTRUCTIONS,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        argv = ["--spec", str(spec_path), "--seeds", "2", "--no-cache"]

        def table(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if not line.startswith("[")]

        want = table(argv)
        # The CLI binds the coordinator when its sweep starts: workers
        # started first wait for it inside their reconnect window.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        threads, counts, stop = start_worker_threads(
            endpoint, 2, reconnect_window=60.0
        )
        try:
            got = table(
                argv + ["--executor", "distributed", "--workers-endpoint", endpoint]
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want
        # Every job of both seeds ran on a worker, none in-process.
        assert sum(counts) >= 2 * len(spec.jobs(make_bench()))


# ---------------------------------------------------------------------------
# Property: executed-job set is shard-count and join-order independent
# ---------------------------------------------------------------------------


class TestShardingProperties:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_workers=st.integers(min_value=1, max_value=3),
        delays=st.lists(
            st.sampled_from([0.0, 0.01, 0.03]), min_size=3, max_size=3
        ),
    )
    def test_executed_jobs_independent_of_shards_and_join_order(
        self, n_workers, delays
    ):
        """Every submitted job is executed exactly once (no cache, no
        faults), whatever the worker count and whenever workers join."""
        executor = tcp_executor(lease_timeout=60.0, poll=0.005)
        bench = make_bench(instructions=120, executor=executor)
        jobs = make_jobs(bench, policies=("l",))
        threads, counts, stop = start_worker_threads(
            executor.endpoint,
            n_workers,
            cache_root=None,
            poll=0.005,
            delays=delays[:n_workers],
        )
        try:
            outcomes = executor.execute(jobs, policy=ExecutionPolicy())
        finally:
            stop_worker_threads(executor, threads, stop)
        assert [outcome.job for outcome in outcomes] == jobs
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.source == "run" for outcome in outcomes)
        # No shared cache and generous leases: exactly-once execution,
        # however the work sharded across however many workers.
        assert sum(counts) == len(jobs)


# ---------------------------------------------------------------------------
# A malformed endpoint stops every CLI before it creates anything
# ---------------------------------------------------------------------------


class TestMalformedEndpointCli:
    @pytest.mark.parametrize(
        "argv",
        [
            [
                "figure2", "--instructions", "300", "--executor",
                "distributed", "--workers-endpoint", "typo:abc",
                "--cache-dir", "cache",
            ],
            [
                "serve", "--port", "0", "--executor", "distributed",
                "--workers-endpoint", "127.0.0.1:70000", "--cache-dir", "cache",
            ],
            ["worker", "host:abc", "--idle-timeout", "1", "--cache-dir", "cache"],
            [
                "worker", "127.0.0.1:70000", "--reconnect-window", "1",
                "--supervise", "2", "--cache-dir", "cache",
            ],
        ],
        ids=["repro", "serve", "worker", "worker-supervise"],
    )
    def test_exits_2_and_creates_nothing(self, tmp_path, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "host:port" in proc.stderr
        assert list(tmp_path.iterdir()) == []
