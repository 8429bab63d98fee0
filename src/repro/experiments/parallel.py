"""Parallel experiment execution: picklable run jobs and worker fan-out.

Independent (kernel x machine-config x policy) simulations share nothing
but their trace, so they fan out over child processes (the local
executor's lanes).  A job is described by a small picklable
:class:`RunJob` -- kernel *name* rather than spec, so each worker
regenerates the trace deterministically from the seeded interpreter
instead of shipping megabytes of trace over the pipe.

Determinism contract: :func:`execute_job` is the *only* code path that
runs a simulation -- serial and laned execution, distributed workers
and :meth:`Workbench.outcome
<repro.experiments.harness.Workbench.outcome>` all call it -- and every
stochastic component it touches (workload data, LoC predictor) derives
its stream from the job's explicit seed.  The per-trace state it shares
between jobs (the trace memo, :func:`repro.experiments.batch.prepared_trace`)
is read-only once built, so a job's result does not depend on which jobs
ran before it in the same process.  Serial and parallel runs therefore
produce equal :class:`~repro.core.results.RunSummary`\\ s -- an
invariant enforced by ``tests/test_parallel_workbench.py``.  A *retried*
job is equally bit-identical to a first-try job: the attempt number feeds
only the fault-injection harness, never the simulation.

:func:`execute_job` returns the run's summary, computed by
:func:`~repro.analysis.summary.summarize` right after the engine, in the
process that holds the records; :func:`simulate` is its engine half and
returns the full :class:`~repro.core.results.SimulationResult`, which
never leaves the process.

Fault tolerance (:func:`execute_outcomes`, over
:class:`~repro.experiments.executor.LocalPoolExecutor`): every job runs
through one retry loop, :func:`run_job_outcome`, under an
:class:`~repro.experiments.outcomes.ExecutionPolicy` -- bounded retries
with backoff -- either in-process or on a
:class:`~repro.experiments.executor.Lane`, whose killable child adds
per-attempt wall-time budgets, child respawn, serial degradation and
clean ``KeyboardInterrupt`` shutdown.  Every job yields a typed
:class:`~repro.experiments.outcomes.JobOutcome`, so sweeps keep going
past individual failures.  Fault injection
(:mod:`repro.testing.chaos`) hooks in here: :func:`chaos_active` says
whether it is on, and the retry loop decides each attempt's fault before
the attempt runs, in-process or in a lane child.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.analysis.summary import summarize
from repro.core.config import MachineConfig
from repro.core.rename import Dependences, extract_dependences
from repro.core.results import RunSummary, SimulationResult
from repro.core.simulator import ClusteredSimulator
from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    GarbageResult,
    JobOutcome,
    OutcomeStats,
    classify_failure,
)
from repro.frontend.branch_predictor import (
    GshareBranchPredictor,
    annotate_mispredictions,
)
from repro.specs.policy import PolicySpec, policy_label, resolve_policy
from repro.vm.trace import DynamicInstruction
from repro.workloads.suite import get_kernel

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle at runtime
    from repro.telemetry.tracing import Tracer
    from repro.testing.chaos import ChaosConfig

# A generous bound: no sane run needs more cycles than ~64 per instruction.
_MAX_CPI_GUARD = 64


@dataclass(frozen=True)
class PreparedWorkload:
    """A trace with its configuration-independent annotations."""

    name: str
    trace: tuple[DynamicInstruction, ...]
    dependences: tuple[Dependences, ...]
    mispredicted: frozenset[int]


@dataclass(frozen=True)
class RunJob:
    """Everything needed to reproduce one simulation in any process.

    The fields are exactly the inputs the on-disk cache keys over (plus
    the cache's schema salt): two jobs that compare equal produce
    bit-identical results, and two jobs that differ in any field may not
    share a cache entry.
    """

    kernel: str
    instructions: int
    seed: int
    loc_mode: str
    config: MachineConfig
    # A preset name ("dependence", "focused", "l", "s", "p") or a frozen
    # PolicySpec for any other composition.  Both forms hash into the
    # cache via the policy's canonical spec payload, so the two spellings
    # of a preset share one cache entry.
    policy: "str | PolicySpec"
    collect_ilp: bool = False
    warm: bool = True
    # Which timing loop runs the job: "event" (the optimized simulator),
    # "reference" (the pre-optimization loop kept as a differential
    # oracle) or "batched" (the structure-of-arrays sweep engine, which
    # shares per-trace precompute across a grid and warms predictors with
    # one canonical training pass -- see repro.experiments.batch).
    # "event" and "reference" are bit-identical; "batched" differs only
    # in its warm-up methodology.  All three are distinct code paths, so
    # the cache keys over this field like any other.
    sim: str = "event"
    # Attach a telemetry payload to the result.  Metrics are observational
    # -- a metrics run's timing is bit-identical to a plain run -- but the
    # cached artifact differs (it carries the payload), so the cache keys
    # over this field too (only when True, to keep old hashes valid).
    metrics: bool = False


def prepare_workload(kernel: str, instructions: int, seed: int) -> PreparedWorkload:
    """Generate the trace, dependences and mispredictions for one kernel.

    Deterministic in (kernel, instructions, seed): the trace comes from
    the seeded interpreter and the misprediction set from a freshly
    constructed gshare predictor.
    """
    spec = get_kernel(kernel)
    trace = tuple(spec.generate(instructions, seed=seed))
    dependences = tuple(extract_dependences(trace))
    mispredicted = frozenset(annotate_mispredictions(trace, GshareBranchPredictor()))
    return PreparedWorkload(spec.name, trace, dependences, mispredicted)


def _stage_span(tracer: "Tracer | None", job: RunJob, name: str, **meta):
    """A span timing one stage of ``job``; a no-op without a tracer."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, kernel=job.kernel, policy=policy_label(job.policy), **meta)


def execute_job(job: RunJob, *, tracer: "Tracer | None" = None) -> RunSummary:
    """Run one simulation and return its :class:`~repro.core.results.RunSummary`.

    The engine runs as in :func:`simulate`; the analyses the figures read
    run right after it, here, where the records are (a ``summarize`` span
    under ``tracer``).
    """
    result = simulate(job, tracer=tracer)
    with _stage_span(tracer, job, "summarize"):
        return summarize(result)


def simulate(job: RunJob, *, tracer: "Tracer | None" = None) -> SimulationResult:
    """Run one simulation on its trace's memoized state, records and all.

    The trace comes from this process's trace memo
    (:func:`repro.experiments.batch.prepared_trace`), generated on a miss.
    Implements the paper's warm-up methodology: when the policy needs
    criticality predictors and ``job.warm`` is set, a throwaway run first
    trains the predictors online, then the measured run continues from the
    warm state with fresh policy objects.

    With ``job.metrics`` set, a :class:`~repro.telemetry.recorder.Recorder`
    observes the *measured* run (never the warm-up) and its payload lands
    on ``result.telemetry``.  With ``tracer`` given, the prep / warm-up /
    measure stages are timed as spans.
    """
    from repro.experiments.batch import batch_key, execute_batched_job, prepared_trace

    policy_spec = resolve_policy(job.policy)
    span = partial(_stage_span, tracer, job)

    if job.sim == "event":
        sim_cls = ClusteredSimulator
    elif job.sim == "reference":
        from repro.core.reference import ReferenceSimulator

        sim_cls = ReferenceSimulator
    elif job.sim == "batched":
        # The batched backend has its own warm-up and measurement shape;
        # it handles tracing spans itself and rejects metrics jobs.
        return execute_batched_job(job, tracer=tracer)
    else:
        raise ValueError(
            f"unknown simulator {job.sim!r}; want 'event', 'reference' or 'batched'"
        )
    with span("trace-prep"):
        prepared = prepared_trace(*batch_key(job))
    max_cycles = _MAX_CPI_GUARD * len(prepared.trace) + 10_000
    steering, scheduler, needs_predictors = policy_spec.build()
    suite = None
    trainer = None
    if needs_predictors:
        suite, trainer = policy_spec.build_predictors(job.loc_mode, job.seed)
        if job.warm:
            warm_sim = sim_cls(
                job.config,
                steering=steering,
                scheduler=scheduler,
                predictors=suite,
                trainer=trainer,
                max_cycles=max_cycles,
            )
            with span("warmup"):
                warm_sim.run(
                    prepared.trace, prepared.dependences, prepared.mispredicted
                )
            # Fresh policy state for the measured run; predictors stay warm.
            steering, scheduler, __ = policy_spec.build()
    recorder = None
    sim_kwargs = {}
    if job.metrics:
        from repro.telemetry.recorder import Recorder

        recorder = Recorder()
        recorder.note_policies(steering, scheduler)
        if sim_cls is ClusteredSimulator:
            # The frozen reference loop takes no telemetry hook; its
            # metrics come entirely from the post-run record scan.
            sim_kwargs["telemetry"] = recorder
    sim = sim_cls(
        job.config,
        steering=steering,
        scheduler=scheduler,
        predictors=suite,
        trainer=trainer,
        collect_ilp=job.collect_ilp,
        max_cycles=max_cycles,
        **sim_kwargs,
    )
    with span("measure", sim=job.sim):
        result = sim.run(prepared.trace, prepared.dependences, prepared.mispredicted)
    if recorder is not None:
        result.telemetry = recorder.finalize(result)
    return result


# ---------------------------------------------------------------------------
# Fault injection plumbing (zero-cost unless activated)
# ---------------------------------------------------------------------------

# Set by repro.testing.chaos.install(); it and REPRO_CHAOS are read only by
# the process that runs the retry loop, never by a lane child.
_chaos_hook: "Callable[[RunJob, int], str | None] | None" = None


def chaos_active() -> bool:
    """Whether fault injection is on: an installed hook or ``REPRO_CHAOS``."""
    return _chaos_hook is not None or bool(os.environ.get("REPRO_CHAOS"))


def _chaos_action(job: RunJob, attempt: int) -> "tuple[str | None, ChaosConfig | None]":
    """The fault scheduled for this attempt, and the config that set it."""
    if not chaos_active():
        return None, None
    from repro.testing.chaos import ChaosConfig, env_config

    schedule = _chaos_hook if _chaos_hook is not None else env_config()
    if schedule is None:
        return None, None
    config = schedule if isinstance(schedule, ChaosConfig) else None
    return schedule(job, attempt), config


def _validate_result(job: RunJob, result: object) -> RunSummary:
    """Reject a malformed worker return (``garbage`` failure, retryable)."""
    if not isinstance(result, RunSummary):
        raise GarbageResult(
            f"worker returned {type(result).__name__} instead of a "
            f"RunSummary for {job.kernel}"
        )
    if result.cycles <= 0 or result.instructions <= 0:
        raise GarbageResult(
            f"worker returned a malformed result for {job.kernel}: "
            f"cycles={result.cycles}, instructions={result.instructions}"
        )
    return result


def _run_attempt(
    job: RunJob, attempt: int, tracer: "Tracer | None", fault: tuple
) -> RunSummary:
    """One attempt, with its decided ``(action, config)`` fault applied."""
    action, config = fault
    if action is not None:
        from repro.testing import chaos

        chaos.perform(action, config)
    result = execute_job(job, tracer=tracer)
    if action == "garbage":
        result = replace(result, cycles=-abs(result.cycles))
    return _validate_result(job, result)


def _pool_attempt(payload: tuple) -> tuple[RunSummary, list[tuple] | None]:
    """Lane-child entry: ``(job, attempt, traced, fault)`` -> (result, spans)."""
    job, attempt, traced, fault = payload
    if not traced:
        return _run_attempt(job, attempt, None, fault), None
    from repro.telemetry.tracing import Tracer

    tracer = Tracer()
    return _run_attempt(job, attempt, tracer, fault), tracer.export()


# ---------------------------------------------------------------------------
# Resilient execution
# ---------------------------------------------------------------------------


def run_job_outcome(
    job: RunJob,
    *,
    tracer: "Tracer | None" = None,
    policy: ExecutionPolicy | None = None,
    stats: OutcomeStats | None = None,
    start_attempt: int = 0,
    attempt_runner: "Callable[[RunJob, int], RunSummary] | None" = None,
    should_stop: "Callable[[], bool] | None" = None,
) -> JobOutcome:
    """Run one job with the policy's retry loop: the only attempt loop.

    Attempts run in-process unless ``attempt_runner``, a ``(job,
    attempt) -> RunSummary`` substitute, runs them elsewhere.  An
    in-process simulation cannot be interrupted, so ``job_timeout`` binds
    only through a runner that can kill an attempt: the
    :class:`~repro.experiments.executor.Lane` that the local executor's
    lanes and the distributed worker pass.  ``should_stop`` is polled
    before each attempt and raises
    :class:`~repro.experiments.outcomes.ExecutionInterrupted` (an
    ``attempt_runner`` may raise it mid-attempt too; it is never
    classified as a failure).  Retry classification, backoff and typed
    outcomes are the same wherever the attempts run.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    start = time.monotonic()
    attempt = start_attempt
    while True:
        if should_stop is not None and should_stop():
            raise ExecutionInterrupted(
                f"job abandoned before attempt {attempt + 1}"
            )
        attempt += 1
        try:
            if attempt_runner is not None:
                result = attempt_runner(job, attempt)
            else:
                result = _run_attempt(job, attempt, tracer, _chaos_action(job, attempt))
        except ExecutionInterrupted:
            raise
        except Exception as exc:
            elapsed = time.monotonic() - start
            failure = classify_failure(exc, attempt, elapsed)
            if failure.retryable and attempt <= policy.max_retries:
                if stats is not None:
                    stats.retries += 1
                if tracer is not None:
                    tracer.event(
                        "job.retry",
                        kernel=job.kernel,
                        kind=failure.kind,
                        attempt=attempt,
                    )
                delay = policy.backoff(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            if stats is not None:
                stats.record_failure(failure)
            return JobOutcome(
                job=job, failure=failure, attempts=attempt, elapsed=elapsed
            )
        if stats is not None:
            stats.executed += 1
        return JobOutcome(
            job=job,
            result=result,
            attempts=attempt,
            elapsed=time.monotonic() - start,
        )


def execute_outcomes(
    jobs: Sequence[RunJob],
    workers: int,
    tracer: "Tracer | None" = None,
    policy: ExecutionPolicy | None = None,
    on_outcome: "Callable[[JobOutcome], None] | None" = None,
    stats: OutcomeStats | None = None,
    should_stop: "Callable[[], bool] | None" = None,
) -> list[JobOutcome]:
    """Execute ``jobs`` fault-tolerantly; one typed outcome per job, in order.

    ``LocalPoolExecutor(workers).execute(...)``: failures settle as
    :class:`~repro.experiments.outcomes.JobOutcome`\\ s instead of
    killing the sweep, ``on_outcome`` fires as each job settles, and
    ``should_stop`` / ``policy.fail_fast`` interrupt as the
    :class:`~repro.experiments.executor.Executor` protocol describes.
    Successful results are bit-identical to serial, fault-free execution
    regardless of retries, worker count or child respawns.
    """
    from repro.experiments.executor import LocalPoolExecutor

    return LocalPoolExecutor(workers=workers).execute(
        jobs,
        tracer=tracer,
        policy=policy,
        on_outcome=on_outcome,
        stats=stats,
        should_stop=should_stop,
    )


def dedupe_jobs(jobs: Iterable[RunJob]) -> list[RunJob]:
    """Drop duplicate jobs, preserving first-seen order."""
    return list(dict.fromkeys(jobs))
