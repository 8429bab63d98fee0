"""Parallel experiment execution: picklable run jobs and worker fan-out.

Independent (kernel x machine-config x policy) simulations share nothing
but their trace, so they fan out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  A job is described by
a small picklable :class:`RunJob` -- kernel *name* rather than spec, so
each worker regenerates the trace deterministically from the seeded
interpreter instead of shipping megabytes of trace over the pipe.

Determinism contract: :func:`execute_job` is the *only* code path that
runs a simulation -- serial and pooled execution, pooled same-trace
groups, distributed workers and :meth:`Workbench.outcome
<repro.experiments.harness.Workbench.outcome>` all call it -- and every
stochastic component it touches (workload data, LoC predictor) derives
its stream from the job's explicit seed.  The per-trace state it shares
between jobs (the trace memo, :func:`repro.experiments.batch.prepared_trace`)
is read-only once built, so a job's result does not depend on which jobs
ran before it in the same process.  Serial and parallel runs therefore
produce bit-identical :class:`~repro.core.results.SimulationResult`\\ s
-- an invariant enforced by ``tests/test_parallel_workbench.py``.  A
*retried* job is equally bit-identical to a first-try job: the attempt
number feeds only the fault-injection harness, never the simulation.

Fault tolerance (:func:`execute_outcomes`, over
:class:`~repro.experiments.executor.LocalPoolExecutor`): jobs run under
an :class:`~repro.experiments.outcomes.ExecutionPolicy` -- per-attempt
wall-time budgets, bounded retries with backoff, pool respawn, serial
degradation and clean ``KeyboardInterrupt`` shutdown -- and every job
yields a typed :class:`~repro.experiments.outcomes.JobOutcome`, so
sweeps keep going past individual failures.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.config import MachineConfig
from repro.core.rename import Dependences, extract_dependences
from repro.core.results import SimulationResult
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


def execute_job(job: RunJob, *, tracer: "Tracer | None" = None) -> SimulationResult:
    """Run one simulation on its trace's memoized state.

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

# In-process hook installed by repro.testing.chaos.install(); pool workers
# are reached through the REPRO_CHAOS environment variable instead.
_chaos_hook: "Callable[[RunJob, int], str | None] | None" = None


def _chaos_action(job: RunJob, attempt: int) -> str | None:
    hook = _chaos_hook
    if hook is not None:
        return hook(job, attempt)
    if os.environ.get("REPRO_CHAOS"):
        from repro.testing.chaos import env_action

        return env_action(job, attempt)
    return None


def _apply_chaos(job: RunJob, attempt: int) -> bool:
    """Run any scheduled pre-run fault; True means garble the result."""
    action = _chaos_action(job, attempt)
    if action is None:
        return False
    if action == "garbage":
        return True
    from repro.testing import chaos

    config = _chaos_hook if isinstance(_chaos_hook, chaos.ChaosConfig) else None
    chaos.perform(action, config)
    return False


def _validate_result(job: RunJob, result: object) -> SimulationResult:
    """Reject a malformed worker return (``garbage`` failure, retryable)."""
    if not isinstance(result, SimulationResult):
        raise GarbageResult(
            f"worker returned {type(result).__name__} instead of a "
            f"SimulationResult for {job.kernel}"
        )
    if result.cycles <= 0 or result.instructions <= 0:
        raise GarbageResult(
            f"worker returned a malformed result for {job.kernel}: "
            f"cycles={result.cycles}, instructions={result.instructions}"
        )
    return result


def _run_attempt(
    job: RunJob, attempt: int, tracer: "Tracer | None" = None
) -> SimulationResult:
    """One attempt, with chaos applied around the deterministic run."""
    garble = _apply_chaos(job, attempt)
    result = execute_job(job, tracer=tracer)
    if garble:
        result.cycles = -abs(result.cycles)
    return _validate_result(job, result)


def _pool_attempt(payload: tuple) -> tuple[SimulationResult, list[tuple] | None]:
    """Pool-worker entry: ``(job, attempt, traced)`` -> (result, spans)."""
    job, attempt, traced = payload
    if not traced:
        return _run_attempt(job, attempt), None
    from repro.telemetry.tracing import Tracer

    tracer = Tracer()
    result = _run_attempt(job, attempt, tracer=tracer)
    return result, tracer.export()


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
    attempt_runner: "Callable[[RunJob, int], SimulationResult] | None" = None,
    should_stop: "Callable[[], bool] | None" = None,
) -> JobOutcome:
    """Run one job in-process with the policy's retry loop.

    Serial in-process execution cannot interrupt a running simulation,
    so ``job_timeout`` is not enforced here by default (the pool path
    recycles workers instead).  A caller that *can* enforce it supplies
    ``attempt_runner``, a ``(job, attempt) -> SimulationResult``
    substitute for the in-process attempt -- the distributed worker uses
    a killable child process when the policy sets a timeout.
    ``should_stop`` is polled before each attempt and raises
    :class:`~repro.experiments.outcomes.ExecutionInterrupted` (an
    ``attempt_runner`` may raise it mid-attempt too; it is never
    classified as a failure).  Everything else -- retry classification,
    backoff, typed outcomes -- behaves exactly as in the pool.
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
                result = _run_attempt(job, attempt, tracer)
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
    regardless of retries, worker count or pool respawns.
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
