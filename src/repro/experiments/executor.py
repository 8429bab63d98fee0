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
  execution, or per-job futures on a
  :class:`~concurrent.futures.ProcessPoolExecutor` with retries,
  per-attempt wall-time budgets, pool respawn and serial degradation;
  ``sim="batched"`` jobs stay in-process on the trace memo
  (:mod:`repro.experiments.batch`) unless only the pool can honour the
  policy.
* :class:`~repro.experiments.distributed.DistributedExecutor` -- a
  coordinator sharding jobs to ``repro worker`` processes over sockets
  or a spool directory (:mod:`repro.distwork`).

``make_executor`` is the one registry; spec files select a backend by
name through ``execution.executor`` and the CLI through ``--executor``.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    ExecutorUnavailable,
    JobOutcome,
    OutcomeStats,
    RunFailureError,
    classify_failure,
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

    ``workers`` feeds the local pool; ``endpoint`` (``host:port`` or a
    spool directory) is required by -- and only consumed by -- the
    distributed backend.
    """
    if name == "local":
        return LocalPoolExecutor(workers=workers)
    if name == "distributed":
        if not endpoint:
            raise ValueError(
                "the distributed executor needs a workers endpoint "
                "(host:port or a spool directory); pass --workers-endpoint "
                "on the CLI or endpoint= in code"
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

    ``close()`` releases long-lived resources (sockets, spool state);
    the local backend holds none and treats it as a no-op.
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
    """Serial or process-pool execution with retries and timeouts.

    ``workers <= 1`` runs every job in-process, one after another,
    sharing this process's trace memo (:mod:`repro.experiments.batch`).
    With more workers, ``sim="batched"`` jobs still run here: they share
    the memo, and shipping their results back from a pool costs more
    than computing them.  The other jobs fan out as per-job futures over
    a :class:`~concurrent.futures.ProcessPoolExecutor` via the resilient
    scheduler (:class:`_PoolScheduler`); a lone one runs in-process.
    Under a ``job_timeout`` every job goes to the pool, lone ones too,
    because only the pool can kill a hung attempt; under fault injection
    batched jobs go there as well, where the chaos suite exercises pool
    recovery.
    """

    name = "local"

    def __init__(self, workers: int = 0):
        self.workers = workers

    def close(self) -> None:
        """No long-lived resources: pools live for one execute() call."""

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
        from repro.experiments.parallel import chaos_active

        policy = policy if policy is not None else ExecutionPolicy()
        jobs = list(jobs)
        batched_here = policy.job_timeout is None and not chaos_active()
        here: list[int] = []
        pooled: list[int] = []
        for index, job in enumerate(jobs):
            (here if batched_here and job.sim == "batched" else pooled).append(index)
        if self.workers <= 1 or (len(pooled) <= 1 and policy.job_timeout is None):
            return _run_serial(jobs, tracer, policy, on_outcome, stats, should_stop)
        outcomes: list[JobOutcome | None] = [None] * len(jobs)
        settled = _run_serial(
            [jobs[i] for i in here], tracer, policy, on_outcome, stats, should_stop
        )
        for index, outcome in zip(here, settled):
            outcomes[index] = outcome
        scheduler = _PoolScheduler(
            [jobs[i] for i in pooled],
            min(self.workers, len(pooled)),
            tracer,
            policy,
            on_outcome,
            stats,
            should_stop=should_stop,
        )
        for index, outcome in zip(pooled, scheduler.run()):
            outcomes[index] = outcome
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]


def _run_serial(
    jobs: "list[RunJob]",
    tracer: "Tracer | None",
    policy: ExecutionPolicy,
    on_outcome: "Callable[[JobOutcome], None] | None",
    stats: OutcomeStats | None,
    should_stop: "Callable[[], bool] | None",
) -> list[JobOutcome]:
    """Run ``jobs`` in-process, one after another, each with retries."""
    from repro.experiments.parallel import run_job_outcome

    outcomes: list[JobOutcome] = []
    for job in jobs:
        if should_stop is not None and should_stop():
            raise ExecutionInterrupted(
                f"execution stopped with {len(jobs) - len(outcomes)} "
                "job(s) not yet run"
            )
        outcome = run_job_outcome(job, tracer=tracer, policy=policy, stats=stats)
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
        if not outcome.ok and policy.fail_fast:
            assert outcome.failure is not None
            raise RunFailureError(job, outcome.failure)
    return outcomes


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
    """Kill ``pool``'s children, then shut it down without waiting.

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
    pool.shutdown(wait=False, cancel_futures=True)


class _JobState:
    """Mutable per-job bookkeeping inside the pool scheduler."""

    __slots__ = ("job", "index", "attempts", "eligible_at", "first_start")

    def __init__(self, job: "RunJob", index: int):
        self.job = job
        self.index = index
        self.attempts = 0
        self.eligible_at = 0.0
        self.first_start: float | None = None


class _PoolScheduler:
    """Per-job futures with timeouts, retries and pool recovery.

    The scheduler submits at most ``pool_size`` jobs at a time, so a
    job's wall-time budget starts ticking when it actually starts
    running.  A hung or overdue worker cannot be cancelled politely, so
    a timeout (like a ``BrokenProcessPool``) kills and respawns the
    pool; in-flight jobs that were *not* at fault are re-enqueued with
    no attempt charged.  After ``max_pool_respawns`` consecutive pool
    deaths with zero completed jobs in between, the remaining jobs run
    serially in-process rather than thrashing a dying pool.
    """

    def __init__(
        self,
        jobs: "Sequence[RunJob]",
        pool_size: int,
        tracer: "Tracer | None",
        policy: ExecutionPolicy,
        on_outcome: "Callable[[JobOutcome], None] | None",
        stats: OutcomeStats | None,
        should_stop: "Callable[[], bool] | None" = None,
    ):
        self.jobs = list(jobs)
        self.pool_size = pool_size
        self.tracer = tracer
        self.policy = policy
        self.on_outcome = on_outcome
        self.stats = stats
        self.should_stop = should_stop
        self.outcomes: list[JobOutcome | None] = [None] * len(self.jobs)
        self.pending: deque[_JobState] = deque(
            _JobState(job, i) for i, job in enumerate(self.jobs)
        )
        self.running: dict = {}  # future -> (state, deadline | None)
        self.pool: ProcessPoolExecutor | None = None
        self.respawns_without_progress = 0
        self.completed_since_respawn = 0
        self.degrade_serial = False

    # ------------------------------------------------------------------
    def run(self) -> list[JobOutcome]:
        try:
            while self.pending or self.running:
                self._check_stop()
                if self.degrade_serial and not self.running:
                    self._drain_serial()
                    break
                self._ensure_pool()
                self._submit_eligible()
                self._wait_and_collect()
        except BaseException:
            # KeyboardInterrupt or a fail-fast failure: cancel pending
            # futures and take the children down with the pool so no
            # orphans linger.  Completed results were already delivered
            # through on_outcome.
            self._kill_pool()
            raise
        else:
            if self.pool is not None:
                self.pool.shutdown(wait=True)
                self.pool = None
        assert all(outcome is not None for outcome in self.outcomes)
        return self.outcomes  # type: ignore[return-value]

    def _check_stop(self) -> None:
        if self.should_stop is not None and self.should_stop():
            raise ExecutionInterrupted(
                f"execution stopped with {len(self.pending)} pending and "
                f"{len(self.running)} running job(s)"
            )

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        if self.pool is None and not self.degrade_serial:
            self.pool = ProcessPoolExecutor(max_workers=self.pool_size)

    def _submit_eligible(self) -> None:
        from repro.experiments.parallel import _pool_attempt

        if self.pool is None:
            return
        now = time.monotonic()
        held: list[_JobState] = []
        try:
            while self.pending and len(self.running) < self.pool_size:
                state = self.pending.popleft()
                if state.eligible_at > now:
                    held.append(state)
                    continue
                state.attempts += 1
                if state.first_start is None:
                    state.first_start = now
                deadline = (
                    now + self.policy.job_timeout
                    if self.policy.job_timeout is not None
                    else None
                )
                payload = (state.job, state.attempts, self.tracer is not None)
                try:
                    future = self.pool.submit(_pool_attempt, payload)
                except BrokenProcessPool:
                    # The job never reached the pool: uncharge and requeue.
                    state.attempts -= 1
                    self.pending.appendleft(state)
                    self._pool_broken()
                    break
                self.running[future] = (state, deadline)
        finally:
            self.pending.extendleft(reversed(held))

    def _wait_and_collect(self) -> None:
        now = time.monotonic()
        waits: list[float] = []
        deadlines = [d for (_, d) in self.running.values() if d is not None]
        if deadlines:
            waits.append(min(deadlines) - now)
        if self.pending and len(self.running) < self.pool_size:
            # Capacity is free but every queued job is in backoff: wake
            # when the earliest becomes eligible.
            waits.append(min(s.eligible_at for s in self.pending) - now)
        timeout = max(0.0, min(waits)) if waits else None
        if not self.running:
            if timeout:
                time.sleep(timeout)
            return
        done, _ = wait(set(self.running), timeout=timeout, return_when=FIRST_COMPLETED)
        # Harvest clean completions before any pool-death sweep: a pool
        # break re-enqueues every job still tracked as in-flight, and a
        # result that already arrived should not be thrown away with them.
        for future in sorted(done, key=lambda f: f.exception() is not None):
            self._collect(future)
        self._check_deadlines()

    # ------------------------------------------------------------------
    def _collect(self, future) -> None:
        from repro.experiments.parallel import _validate_result

        entry = self.running.pop(future, None)
        if entry is None:  # already handled by a pool-death sweep
            return
        state, _deadline = entry
        try:
            result, spans = future.result()
            _validate_result(state.job, result)
        except BrokenProcessPool:
            self.running[future] = entry  # count it among the lost
            self._pool_broken()
            return
        except Exception as exc:
            self._attempt_failed(state, exc)
            return
        if spans and self.tracer is not None:
            self.tracer.merge(spans, worker=True)
        self._success(state, result)

    def _success(self, state: _JobState, result: "SimulationResult") -> None:
        if self.stats is not None:
            self.stats.executed += 1
        self.completed_since_respawn += 1
        self.respawns_without_progress = 0
        self._finish(
            state,
            JobOutcome(
                job=state.job,
                result=result,
                attempts=state.attempts,
                elapsed=self._elapsed(state),
            ),
        )

    def _attempt_failed(self, state: _JobState, exc: BaseException) -> None:
        failure = classify_failure(exc, state.attempts, self._elapsed(state))
        if failure.retryable and state.attempts <= self.policy.max_retries:
            if self.stats is not None:
                self.stats.retries += 1
            if self.tracer is not None:
                self.tracer.event(
                    "job.retry",
                    kernel=state.job.kernel,
                    kind=failure.kind,
                    attempt=state.attempts,
                )
            state.eligible_at = time.monotonic() + self.policy.backoff(state.attempts)
            self.pending.append(state)
            return
        if self.stats is not None:
            self.stats.record_failure(failure)
        self._finish(
            state,
            JobOutcome(
                job=state.job,
                failure=failure,
                attempts=state.attempts,
                elapsed=self._elapsed(state),
            ),
        )

    def _finish(self, state: _JobState, outcome: JobOutcome) -> None:
        self.outcomes[state.index] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        if not outcome.ok and self.policy.fail_fast:
            assert outcome.failure is not None
            raise RunFailureError(state.job, outcome.failure)

    def _elapsed(self, state: _JobState) -> float:
        if state.first_start is None:
            return 0.0
        return time.monotonic() - state.first_start

    # ------------------------------------------------------------------
    def _pool_broken(self) -> None:
        """A worker died abruptly: respawn and re-enqueue the lost jobs.

        Which in-flight job killed the worker is unknowable from the
        parent, so every lost job is charged one ``crash`` attempt --
        the retry budget bounds a job that reliably kills its worker
        while letting innocent bystanders re-run.
        """
        lost = [state for (state, _d) in self.running.values()]
        self.running.clear()
        self._kill_pool()
        if self.stats is not None:
            self.stats.pool_respawns += 1
        if self.tracer is not None:
            self.tracer.event("pool.respawn", lost=len(lost))
        if self.completed_since_respawn == 0:
            self.respawns_without_progress += 1
        else:
            self.respawns_without_progress = 0
        self.completed_since_respawn = 0
        if self.respawns_without_progress > self.policy.max_pool_respawns:
            self.degrade_serial = True
            if self.tracer is not None:
                self.tracer.event("pool.degrade-serial")
        for state in lost:
            self._attempt_failed(state, BrokenProcessPool("worker process died"))

    def _check_deadlines(self) -> None:
        if self.policy.job_timeout is None or not self.running:
            return
        now = time.monotonic()
        overdue = [
            (future, state)
            for future, (state, deadline) in self.running.items()
            if deadline is not None and deadline <= now and not future.done()
        ]
        if not overdue:
            return
        # The overdue workers are hung; the only way out is to recycle
        # the pool.  Innocent in-flight jobs are re-enqueued uncharged.
        if self.stats is not None:
            self.stats.timeouts += len(overdue)
        for future, state in overdue:
            del self.running[future]
            self._attempt_failed(
                state,
                TimeoutError(
                    f"job exceeded {self.policy.job_timeout}s wall-time budget"
                ),
            )
        for future, (state, _deadline) in list(self.running.items()):
            state.attempts -= 1  # not this job's fault: uncharge the attempt
            self.pending.append(state)
        self.running.clear()
        self._kill_pool()
        if self.tracer is not None:
            self.tracer.event("pool.recycle", reason="timeout")

    def _kill_pool(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            kill_pool(pool)

    # ------------------------------------------------------------------
    def _drain_serial(self) -> None:
        """Degraded mode: finish the remaining jobs in-process."""
        from repro.experiments.parallel import run_job_outcome

        while self.pending:
            self._check_stop()
            state = self.pending.popleft()
            outcome = run_job_outcome(
                state.job,
                tracer=self.tracer,
                policy=self.policy,
                stats=self.stats,
                start_attempt=state.attempts,
            )
            self._finish(state, outcome)
