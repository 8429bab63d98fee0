"""The :class:`Executor` protocol and the local process-pool backend.

Every way the repo runs a sweep -- ``Workbench.prefetch``, ``run_spec``,
the ``repro serve`` scheduler, the CLI -- funnels its pending
:class:`~repro.experiments.parallel.RunJob`\\ s through one seam::

    executor.execute(jobs, tracer=..., policy=..., on_outcome=...,
                     stats=..., should_stop=...) -> list[JobOutcome]

An executor settles every submitted job with exactly one typed
:class:`~repro.experiments.outcomes.JobOutcome` (result *or* failure,
never both), returned in submission order; ``on_outcome`` fires on the
**calling thread** as each job settles, which is what lets the workbench
flush results to the caches and the sweep manifest journal progress
without any locking of their own.  ``should_stop`` is polled at settle
boundaries and raises
:class:`~repro.experiments.outcomes.ExecutionInterrupted`; under
``policy.fail_fast`` the first final failure raises
:class:`~repro.experiments.outcomes.RunFailureError`.

Backends:

* :class:`LocalPoolExecutor` -- this module.  In-process serial
  execution, or jobs fanned out over :class:`Lane`\\ s: threads that each
  drive one killable child process through the same retry loop
  (:func:`~repro.experiments.parallel.run_job_outcome`), with
  per-attempt wall-time budgets, child respawn and per-lane serial
  degradation; ``sim="batched"`` jobs stay in-process on the trace memo
  (:mod:`repro.experiments.batch`) unless only a lane can honour the
  policy.
* :class:`~repro.experiments.distributed.DistributedExecutor` -- a TCP
  coordinator sharding jobs to ``repro worker`` processes
  (:mod:`repro.distwork`).

``make_executor`` is the one registry; spec files select a backend by
name through ``execution.executor`` and the CLI through ``--executor``.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    ExecutorUnavailable,
    JobOutcome,
    OutcomeStats,
    RunFailureError,
    settle_stats,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SimulationResult
    from repro.experiments.parallel import RunJob
    from repro.telemetry.tracing import Tracer

__all__ = [
    "BreakerExecutor",
    "CircuitBreaker",
    "EXECUTOR_NAMES",
    "Executor",
    "Lane",
    "LocalPoolExecutor",
    "executor_names",
    "kill_pool",
    "make_executor",
]

# The registry of selectable backends.  "distributed" resolves lazily so
# importing the execution layer never drags the coordinator in.
EXECUTOR_NAMES = ("local", "distributed")


def executor_names() -> tuple[str, ...]:
    """The backend names ``make_executor`` / spec validation accept."""
    return EXECUTOR_NAMES


def make_executor(
    name: str, *, workers: int = 0, endpoint: str | None = None
) -> "Executor":
    """Build the named executor backend.

    ``workers`` feeds the local pool; ``endpoint`` (``host:port``) is
    required by -- and only consumed by -- the distributed backend.
    """
    if name == "local":
        return LocalPoolExecutor(workers=workers)
    if name == "distributed":
        if not endpoint:
            raise ValueError(
                "the distributed executor needs a workers endpoint "
                "(host:port); pass --workers-endpoint on the CLI or "
                "endpoint= in code"
            )
        from repro.experiments.distributed import DistributedExecutor

        return DistributedExecutor(endpoint)
    raise ValueError(
        f"unknown executor {name!r}; want one of: {', '.join(EXECUTOR_NAMES)}"
    )


@runtime_checkable
class Executor(Protocol):
    """What a sweep execution backend must provide.

    The contract every caller (workbench prefetch, ``run_spec``, the
    service scheduler) relies on:

    * one :class:`JobOutcome` per submitted job, returned in submission
      order;
    * ``on_outcome`` is invoked on the calling thread, once per job, as
      the job settles (in settle order, which need not be submission
      order);
    * ``stats`` is mutated in place (``executed`` / ``retries`` /
      failure counters);
    * ``should_stop`` turning true raises :class:`ExecutionInterrupted`
      at the next settle boundary -- already-delivered outcomes stay
      delivered;
    * ``policy.fail_fast`` raises :class:`RunFailureError` on the first
      final failure.

    ``close()`` releases long-lived resources (the distributed
    backend's coordinator socket); the local backend holds none and
    treats it as a no-op.
    """

    name: str

    def execute(
        self,
        jobs: "Sequence[RunJob]",
        *,
        tracer: "Tracer | None" = None,
        policy: ExecutionPolicy | None = None,
        on_outcome: "Callable[[JobOutcome], None] | None" = None,
        stats: OutcomeStats | None = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> list[JobOutcome]: ...

    def close(self) -> None: ...


class LocalPoolExecutor:
    """Serial in-process execution, or jobs fanned out over lanes.

    ``workers <= 1`` runs every job in-process, one after another,
    sharing this process's trace memo (:mod:`repro.experiments.batch`).
    With more workers, ``sim="batched"`` jobs still run here first: they
    share the memo, and shipping their results back from a child costs
    more than computing them.  The other jobs go to ``min(workers,
    jobs)`` :class:`Lane`\\ s, each a thread that takes jobs in
    submission order and runs their attempts in its own killable child;
    a lone one runs in-process.  Under a ``job_timeout`` every job goes
    to a lane, lone ones too, because only a child can be killed
    mid-attempt; under fault injection batched jobs go there as well,
    where the chaos suite exercises lane recovery.
    """

    name = "local"

    def __init__(self, workers: int = 0):
        self.workers = workers

    def close(self) -> None:
        """No long-lived resources: lanes live for one execute() call."""

    # ------------------------------------------------------------------
    def execute(
        self,
        jobs: "Sequence[RunJob]",
        *,
        tracer: "Tracer | None" = None,
        policy: ExecutionPolicy | None = None,
        on_outcome: "Callable[[JobOutcome], None] | None" = None,
        stats: OutcomeStats | None = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> list[JobOutcome]:
        from repro.experiments.parallel import chaos_active, run_job_outcome

        policy = policy if policy is not None else ExecutionPolicy()
        jobs = list(jobs)
        batched_here = policy.job_timeout is None and not chaos_active()
        here: list[int] = []
        laned: list[int] = []
        for index, job in enumerate(jobs):
            (here if batched_here and job.sim == "batched" else laned).append(index)
        if self.workers <= 1 or (len(laned) <= 1 and policy.job_timeout is None):
            here, laned = list(range(len(jobs))), []
        outcomes: list[JobOutcome | None] = [None] * len(jobs)

        def settle(index: int, outcome: JobOutcome) -> None:
            outcomes[index] = outcome
            settle_stats(stats, outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if not outcome.ok and policy.fail_fast:
                assert outcome.failure is not None
                raise RunFailureError(outcome.job, outcome.failure)

        for done, index in enumerate(here):
            _check_stop(should_stop, len(jobs) - done)
            settle(index, run_job_outcome(jobs[index], tracer=tracer, policy=policy))
        if laned:
            _run_lanes(
                [(index, jobs[index]) for index in laned],
                min(self.workers, len(laned)),
                tracer,
                policy,
                stats,
                should_stop,
                settle,
            )
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]


def _check_stop(should_stop: "Callable[[], bool] | None", unsettled: int) -> None:
    if should_stop is not None and should_stop():
        raise ExecutionInterrupted(
            f"execution stopped with {unsettled} job(s) unsettled"
        )


class CircuitBreaker:
    """Consecutive-failure circuit: ``closed`` -> ``open`` -> ``half_open``.

    The classic degradation state machine, kept deliberately tiny and
    executor-agnostic.  ``record_failure()`` counts *consecutive*
    qualifying failures; reaching ``threshold`` opens the circuit for
    ``cooldown`` seconds, during which :meth:`allow` refuses work.  After
    the cooldown one caller is let through as a half-open probe: its
    success closes the circuit, its failure re-opens it (and restarts
    the cooldown).  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = "closed"  # "closed" | "open" | "half_open"
        self.failures = 0  # consecutive
        self.opened_at: float | None = None
        self.opens_total = 0

    def allow(self) -> bool:
        """Whether a call may proceed (transitions open->half_open)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            assert self.opened_at is not None
            if self._clock() - self.opened_at < self.cooldown:
                return False
            self.state = "half_open"
            return True
        # half_open: exactly one probe is in flight; hold everyone else
        # until it reports back.
        return False

    def record_success(self) -> str | None:
        """Note a successful call; returns ``"close"`` on reclosure."""
        reopened = self.state != "closed"
        self.state = "closed"
        self.failures = 0
        self.opened_at = None
        return "close" if reopened else None

    def record_failure(self) -> str | None:
        """Note a qualifying failure; returns ``"open"`` when it trips."""
        if self.state == "half_open":
            # The probe failed: straight back to open, fresh cooldown.
            self.state = "open"
            self.opened_at = self._clock()
            self.opens_total += 1
            return "open"
        self.failures += 1
        if self.state == "closed" and self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = self._clock()
            self.opens_total += 1
            return "open"
        return None

    def retry_after(self) -> float:
        """Seconds until the next half-open probe would be allowed."""
        if self.state != "open" or self.opened_at is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self.opened_at))

    def snapshot(self) -> dict:
        """State for readiness probes and the stats endpoint."""
        return {
            "state": self.state,
            "failures": self.failures,
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "opens_total": self.opens_total,
            "retry_after": round(self.retry_after(), 3),
        }


class BreakerExecutor:
    """Circuit-break a fragile backend, falling back or holding.

    Wraps a ``primary`` :class:`Executor` (in practice the distributed
    one -- its coordinator transport and remote workers are the only
    backend with a network failure mode).  Two failure classes feed the
    breaker:

    * **connect failures** -- ``primary.execute()`` raising
      :class:`~repro.experiments.outcomes.ExecutorUnavailable` /
      ``OSError`` / ``ConnectionError`` before settling anything;
    * **lost workers** -- settled outcomes whose final failure is
      ``WorkerLost`` (every lease attempt died), the distributed
      backend's way of saying "workers keep vanishing".

    Each tripping failure counts consecutively; a fully clean
    ``execute()`` resets the count.  While the circuit is open, calls go
    to ``fallback`` when one is configured (the service wires a
    :class:`LocalPoolExecutor`), otherwise they **queue and hold**:
    block -- polling ``should_stop`` so drains still interrupt -- until
    the cooldown elapses and the half-open probe may run.  Transitions
    emit ``service.breaker.open`` / ``half_open`` / ``close`` tracer
    events.

    A connect failure settles no jobs, so falling back re-submits the
    whole batch; ``WorkerLost`` outcomes were already delivered and only
    shape future calls (the resilient retry layers above own per-job
    recovery).
    """

    def __init__(
        self,
        primary: "Executor",
        fallback: "Executor | None" = None,
        breaker: CircuitBreaker | None = None,
        tracer: "Tracer | None" = None,
        hold_poll: float = 0.2,
    ):
        self.primary = primary
        self.fallback = fallback
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.tracer = tracer
        self.hold_poll = hold_poll
        self.name = primary.name

    # ------------------------------------------------------------------
    def _transition(self, event: str | None) -> None:
        if event is not None and self.tracer is not None:
            self.tracer.event(f"service.breaker.{event}", backend=self.primary.name)

    def _note_half_open(self) -> None:
        if self.breaker.state == "half_open" and self.tracer is not None:
            self.tracer.event("service.breaker.half_open", backend=self.primary.name)

    def _hold(self, should_stop) -> None:
        """Queue-and-hold: wait out the cooldown (or the caller's stop)."""
        while not self.breaker.allow():
            if should_stop is not None and should_stop():
                raise ExecutionInterrupted(
                    "execution stopped while holding for an open circuit"
                )
            time.sleep(min(self.hold_poll, max(self.breaker.retry_after(), 0.01)))
        self._note_half_open()

    def execute(
        self,
        jobs: "Sequence[RunJob]",
        *,
        tracer: "Tracer | None" = None,
        policy: ExecutionPolicy | None = None,
        on_outcome: "Callable[[JobOutcome], None] | None" = None,
        stats: OutcomeStats | None = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> list[JobOutcome]:
        jobs = list(jobs)
        if not jobs:
            return []
        allowed = self.breaker.allow()
        if allowed:
            self._note_half_open()
        else:
            if self.fallback is None:
                self._hold(should_stop)
            else:
                return self.fallback.execute(
                    jobs,
                    tracer=tracer,
                    policy=policy,
                    on_outcome=on_outcome,
                    stats=stats,
                    should_stop=should_stop,
                )
        try:
            outcomes = self.primary.execute(
                jobs,
                tracer=tracer,
                policy=policy,
                on_outcome=on_outcome,
                stats=stats,
                should_stop=should_stop,
            )
        except (ExecutorUnavailable, ConnectionError, OSError) as exc:
            self._transition(self.breaker.record_failure())
            if self.fallback is not None:
                # Nothing settled (connect failures die before publishing),
                # so the whole batch re-submits cleanly.
                return self.fallback.execute(
                    jobs,
                    tracer=tracer,
                    policy=policy,
                    on_outcome=on_outcome,
                    stats=stats,
                    should_stop=should_stop,
                )
            raise ExecutorUnavailable(
                f"{self.primary.name} backend unavailable and no fallback "
                f"configured: {type(exc).__name__}: {exc}"
            ) from exc
        lost = sum(
            1
            for outcome in outcomes
            if outcome.failure is not None
            and outcome.failure.error_type == "WorkerLost"
        )
        if lost:
            self._transition(self.breaker.record_failure())
        else:
            self._transition(self.breaker.record_success())
        return outcomes

    def close(self) -> None:
        self.primary.close()
        if self.fallback is not None:
            self.fallback.close()


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Kill ``pool``'s children, then shut it down and join its threads.

    Hung children never drain the call queue, so a polite shutdown would
    block forever: kill them first (private attr, guarded).
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-dead race
                pass
    pool.shutdown(wait=True, cancel_futures=True)


# Seconds a lane waits on its child between deadline and abandon checks.
_LANE_SLICE = 0.25


def _lane_context():
    """The one start method of lane children: a fork server, configured
    when a lane first builds its pool, that has imported the simulation
    stack.  Each child forks from that single-threaded server and
    inherits none of the caller's runtime state; like a ``spawn`` child,
    it imports a main module run from a path itself."""
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.experiments.batch"])
    return context


class Lane:
    """One killable child process that runs a job's attempts.

    A lane is an ``attempt_runner`` for
    :func:`~repro.experiments.parallel.run_job_outcome`, which keeps the
    retry loop, failure classification and backoff.  Each call decides
    the attempt's fault here and submits both
    (:func:`~repro.experiments.parallel._pool_attempt`) to a one-process
    :class:`~concurrent.futures.ProcessPoolExecutor` (:func:`_lane_context`)
    and waits for it in 0.25 s slices:

    * past ``timeout`` seconds it kills the child and raises
      :class:`TimeoutError` (``timeout``, retryable);
    * when the child dies it kills the pool and re-raises
      ``BrokenProcessPool`` (``crash``, retryable);
    * when ``should_abandon()`` turns true it kills the child and raises
      :class:`~repro.experiments.outcomes.ExecutionInterrupted`.

    The next attempt after a kill starts a fresh child.  After more than
    ``max_respawns`` child deaths in a row with no successful attempt in
    between, the lane runs its attempts in-process instead.  ``timeouts``
    and ``respawns`` count deadline kills and child deaths.  With a
    ``tracer`` the child's spans are merged tagged ``worker=True``, and
    the lane records ``pool.recycle``, ``pool.respawn`` and
    ``pool.degrade-serial`` events.  :meth:`kill` ends the current child.
    """

    def __init__(
        self,
        timeout: float | None = None,
        should_abandon: "Callable[[], bool] | None" = None,
        tracer: "Tracer | None" = None,
        max_respawns: int = 3,
    ):
        self.timeout = timeout
        self.should_abandon = should_abandon
        self.tracer = tracer
        self.max_respawns = max_respawns
        self.timeouts = 0
        self.respawns = 0
        self._deaths = 0  # in a row, with no successful attempt between
        self._pool: ProcessPoolExecutor | None = None

    def __call__(self, job: "RunJob", attempt: int) -> "SimulationResult":
        from repro.experiments.parallel import _chaos_action, _pool_attempt, _run_attempt

        fault = _chaos_action(job, attempt)
        if self._deaths > self.max_respawns:
            return _run_attempt(job, attempt, self.tracer, fault)
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=1, mp_context=_lane_context())
            future = self._pool.submit(
                _pool_attempt, (job, attempt, self.tracer is not None, fault)
            )
            deadline = None if self.timeout is None else time.monotonic() + self.timeout
            while True:
                left = _LANE_SLICE if deadline is None else deadline - time.monotonic()
                if wait([future], timeout=max(0.0, min(left, _LANE_SLICE))).done:
                    break
                if self.should_abandon is not None and self.should_abandon():
                    self.kill()
                    raise ExecutionInterrupted(f"attempt {attempt} abandoned")
                if deadline is not None and time.monotonic() >= deadline:
                    self.kill()
                    self.timeouts += 1
                    if self.tracer is not None:
                        self.tracer.event("pool.recycle", reason="timeout")
                    raise TimeoutError(
                        f"job exceeded {self.timeout}s wall-time budget"
                    )
            result, spans = future.result()
        except BrokenProcessPool:
            self.kill()
            self.respawns += 1
            self._deaths += 1
            if self.tracer is not None:
                self.tracer.event("pool.respawn", lost=1)
                if self._deaths > self.max_respawns:
                    self.tracer.event("pool.degrade-serial")
            raise
        self._deaths = 0
        if spans and self.tracer is not None:
            self.tracer.merge(spans, worker=True)
        return result

    def kill(self) -> None:
        """Kill the child, if any; the next attempt starts a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            kill_pool(pool)


def _run_lanes(
    jobs: "list[tuple[int, RunJob]]",
    count: int,
    tracer: "Tracer | None",
    policy: ExecutionPolicy,
    stats: OutcomeStats | None,
    should_stop: "Callable[[], bool] | None",
    settle: "Callable[[int, JobOutcome], None]",
) -> None:
    """Run ``(index, job)`` pairs on ``count`` lanes; settle on this thread.

    Lane threads take jobs in submission order and hand each outcome (or
    an exception that escaped the retry loop) back through a queue, so
    ``settle`` and ``should_stop`` only ever run on the calling thread.
    Every exit path stops the lanes, joins their threads, kills their
    children and adds their timeout and respawn counts to ``stats``.
    """
    from repro.experiments.parallel import run_job_outcome

    pending = deque(jobs)
    settled: queue.SimpleQueue = queue.SimpleQueue()
    stop = threading.Event()
    lanes = [
        Lane(policy.job_timeout, stop.is_set, tracer, policy.max_pool_respawns)
        for _ in range(count)
    ]

    def drive(lane: Lane) -> None:
        try:
            while not stop.is_set():
                try:
                    index, job = pending.popleft()
                except IndexError:
                    return
                outcome = run_job_outcome(
                    job,
                    tracer=tracer,
                    policy=policy,
                    attempt_runner=lane,
                    should_stop=stop.is_set,
                )
                settled.put((index, outcome))
        except BaseException as exc:  # re-raised on the calling thread
            settled.put((None, exc))

    threads = [
        threading.Thread(target=drive, args=(lane,), name=f"repro-lane-{n}", daemon=True)
        for n, lane in enumerate(lanes)
    ]
    try:
        for thread in threads:
            thread.start()
        for unsettled in range(len(jobs), 0, -1):
            _check_stop(should_stop, unsettled)
            index, outcome = settled.get()
            if index is None:
                raise outcome
            settle(index, outcome)
    finally:
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        # After the joins: a lane whose last attempt finished just as the
        # stop came still has its (idle) child.
        for lane in lanes:
            lane.kill()
            if stats is not None:
                stats.timeouts += lane.timeouts
                stats.pool_respawns += lane.respawns
