"""Typed per-job execution outcomes for fault-tolerant sweeps.

A sweep that loses 131 finished simulations to one worker crash -- or
silently averages a non-converged run into a figure -- corrupts the
reproduction.  This module gives the execution layer a vocabulary for
*partial* success: every job the resilient executor touches produces a
:class:`JobOutcome`, which either carries the bit-identical
:class:`~repro.core.results.RunSummary` or a typed
:class:`RunFailure` describing what went wrong (error class, attempts,
elapsed wall time, traceback digest).  Figure renderers turn failures
into explicit ``FAILED``/``TIMEOUT`` cells instead of dying, and the
sweep manifest serializes outcomes for checkpoint/resume.

Failure kinds (:class:`RunFailure.kind`):

* ``crash``    -- the worker process died (``BrokenProcessPool``); retried.
* ``timeout``  -- the job exceeded the configured wall-time budget; retried.
* ``garbage``  -- the worker returned a malformed result; retried.
* ``injected`` -- a chaos-harness fault (:mod:`repro.testing.chaos`); retried.
* ``diverged`` -- the simulation exhausted its cycle guard
  (:class:`~repro.core.simulator.SimulationDiverged`); **not** retried,
  the simulator is deterministic and would diverge again.
* ``error``    -- any other in-process exception; **not** retried for the
  same reason.

Retry behaviour, timeouts and the fail-fast switch live in
:class:`ExecutionPolicy`, threaded from the CLI / spec files / Workbench
down to :func:`repro.experiments.parallel.execute_outcomes`.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import RunSummary
    from repro.experiments.parallel import RunJob

__all__ = [
    "ExecutionInterrupted",
    "ExecutionPolicy",
    "ExecutorUnavailable",
    "GarbageResult",
    "JobOutcome",
    "OutcomeStats",
    "RETRYABLE_KINDS",
    "RunFailure",
    "RunFailureError",
    "classify_failure",
    "settle_stats",
    "traceback_digest",
]

# Kinds the executor retries: transient by construction (a killed worker,
# a hang, an injected fault, a garbled return).  Deterministic in-process
# exceptions ("error", "diverged") are final on the first attempt -- the
# simulator would do the same thing again.
RETRYABLE_KINDS = frozenset({"crash", "timeout", "garbage", "injected"})


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard the executor tries before declaring a job failed.

    ``max_retries`` bounds *re*-attempts: a job runs at most
    ``max_retries + 1`` times.  ``job_timeout`` is wall-clock seconds per
    attempt, enforced where attempts run in a killable child process (a
    :class:`~repro.experiments.executor.Lane`): the local executor with
    ``workers > 1`` and the distributed worker.  With ``workers <= 1``
    every attempt runs in-process, which nothing can interrupt, so
    ``job_timeout`` is not enforced there.
    ``backoff_base * backoff_factor**(attempt-1)`` seconds separate
    retries (0 disables waiting -- the default keeps sweeps fast; raise it
    when retrying flaky shared infrastructure).  After more than
    ``max_pool_respawns`` consecutive child deaths on one lane with no
    successful attempt in between, that lane runs its attempts in-process
    rather than thrashing.
    """

    max_retries: int = 2
    job_timeout: float | None = None
    fail_fast: bool = False
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    max_pool_respawns: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-running after failed attempt ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** max(attempt - 1, 0)


def traceback_digest(exc: BaseException) -> str:
    """A short stable digest of an exception's traceback.

    Frame filenames/lines only (no memory addresses, no locals), so two
    workers failing the same way produce the same digest and a report
    reader can group failures without shipping whole tracebacks around.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    text = "\n".join(f"{f.filename}:{f.lineno}:{f.name}" for f in frames)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunFailure:
    """Why one job ultimately failed (after all retries)."""

    kind: str
    error_type: str
    message: str
    attempts: int
    elapsed: float
    traceback_digest: str = ""

    @property
    def retryable(self) -> bool:
        return self.kind in RETRYABLE_KINDS

    def label(self) -> str:
        """The table cell a figure renders for this failure."""
        return "TIMEOUT" if self.kind == "timeout" else f"FAILED({self.kind})"

    # -- serialization (manifest / run report) --------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 6),
            "traceback_digest": self.traceback_digest,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunFailure":
        return cls(
            kind=str(data.get("kind", "error")),
            error_type=str(data.get("error_type", "")),
            message=str(data.get("message", "")),
            attempts=int(data.get("attempts", 1)),
            elapsed=float(data.get("elapsed", 0.0)),
            traceback_digest=str(data.get("traceback_digest", "")),
        )


class ExecutionInterrupted(RuntimeError):
    """Execution was stopped cooperatively at a settle boundary.

    Raised by :func:`repro.experiments.parallel.execute_outcomes` when
    its ``should_stop`` callback turns true (the job service uses this
    for graceful shutdown).  Jobs that already settled were delivered
    through ``on_outcome`` and stay cached; the interrupt only forfeits
    work not yet started.
    """


class ExecutorUnavailable(RuntimeError):
    """An execution backend cannot take work right now.

    Raised by :class:`~repro.experiments.distributed.DistributedExecutor`
    when its transport cannot be opened (the endpoint is unusable) and by
    :class:`~repro.experiments.executor.BreakerExecutor` when its circuit
    is open and no fallback is configured.  Distinct from a per-job
    :class:`RunFailure`: no job was attempted -- the whole backend is
    down, and the caller should shed, fall back, or retry later.
    """


class GarbageResult(RuntimeError):
    """A worker returned something that is not a sane RunSummary.

    Raised by the executor's post-run validator (and provoked on demand
    by the chaos harness's ``garbage`` mode).  Retryable: a garbled
    return is transport/worker damage, not simulator determinism.
    """


class RunFailureError(RuntimeError, ValueError):
    """Raised by fail-fast execution paths; wraps the typed failure.

    Also subclasses ``ValueError`` (the :class:`~repro.specs.SpecError`
    precedent): before typed outcomes, a bad configuration escaped
    ``Workbench.run`` as the underlying ``ValueError``, and legacy
    callers catching that must keep working.
    """

    def __init__(self, job: "RunJob", failure: RunFailure):
        super().__init__(
            f"job {job.kernel}/{job.config.name} failed "
            f"({failure.kind}: {failure.error_type}: {failure.message}; "
            f"{failure.attempts} attempt{'s' if failure.attempts != 1 else ''})"
        )
        self.job = job
        self.failure = failure


@dataclass(frozen=True)
class JobOutcome:
    """One job's final fate: a result, or a typed failure -- never both.

    ``source`` records where a successful result came from (``run``,
    ``cache``, ``memory``); ``attempts``/``elapsed`` cover the executed
    attempts (0 / 0.0 for pure cache hits).
    """

    job: "RunJob"
    result: "RunSummary | None" = None
    failure: RunFailure | None = None
    attempts: int = 1
    elapsed: float = 0.0
    source: str = "run"

    def __post_init__(self) -> None:
        if (self.result is None) == (self.failure is None):
            raise ValueError("JobOutcome needs exactly one of result/failure")

    @property
    def ok(self) -> bool:
        return self.failure is None

    def unwrap(self) -> "RunSummary":
        """The result, or the typed :class:`RunFailureError`."""
        if self.result is None:
            assert self.failure is not None
            raise RunFailureError(self.job, self.failure)
        return self.result


def classify_failure(
    exc: BaseException, attempts: int, elapsed: float
) -> RunFailure:
    """Map an exception from one attempt onto a typed :class:`RunFailure`."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.core.simulator import SimulationDiverged

    kind = "error"
    if isinstance(exc, SimulationDiverged):
        kind = "diverged"
    elif isinstance(exc, BrokenProcessPool):
        kind = "crash"
    elif isinstance(exc, TimeoutError):
        kind = "timeout"
    elif isinstance(exc, GarbageResult):
        kind = "garbage"
    elif type(exc).__name__ == "ChaosError":
        # repro.testing.chaos.ChaosError, matched by name to keep the
        # chaos harness import-free from the hot execution path.
        kind = "injected"
    return RunFailure(
        kind=kind,
        error_type=type(exc).__name__,
        message=str(exc)[:500],
        attempts=attempts,
        elapsed=elapsed,
        traceback_digest=traceback_digest(exc),
    )


@dataclass
class OutcomeStats:
    """Aggregate counters the executor/harness expose to reports."""

    executed: int = 0
    failed: int = 0
    retries: int = 0
    pool_respawns: int = 0
    timeouts: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def record_failure(self, failure: RunFailure) -> None:
        self.failed += 1
        self.by_kind[failure.kind] = self.by_kind.get(failure.kind, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "executed": self.executed,
            "failed": self.failed,
            "retries": self.retries,
            "pool_respawns": self.pool_respawns,
            "timeouts": self.timeouts,
            "by_kind": dict(self.by_kind),
        }


def settle_stats(stats: OutcomeStats | None, outcome: JobOutcome) -> None:
    """Count one settled job: its retries, then its run or its failure."""
    if stats is None:
        return
    stats.retries += max(outcome.attempts - 1, 0)
    if outcome.failure is not None:
        stats.record_failure(outcome.failure)
    elif outcome.source == "run":
        stats.executed += 1
