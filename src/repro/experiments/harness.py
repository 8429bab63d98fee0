"""Shared experiment harness.

A :class:`Workbench` builds the paper's policy stacks by name and runs
simulations with the paper's predictor-warm-up methodology: every
measured run is preceded by a warm-up run of the same machine and policy
that trains the criticality/LoC predictors online, then the measurement
run continues training from the warm state (Section 2.1 "after warming
up the branch predictor and cache"; the criticality predictor warms the
same way).

Runs are cached at two levels:

* an **in-memory** cache keyed by the full
  :class:`~repro.experiments.parallel.RunJob` for the lifetime of the
  workbench;
* an optional **persistent** :class:`~repro.experiments.cache.RunCache`
  shared across processes and invocations, keyed by a content hash of the
  full :class:`~repro.experiments.parallel.RunJob`.

Traces come from the per-process trace memo
(:func:`repro.experiments.batch.prepared_trace`), not from the workbench.

A figure's runs execute together through :meth:`Workbench.prefetch`
(each figure module publishes a ``plan_*`` enumerating the runs it
needs), with event-engine runs fanned out over worker processes when
``workers`` > 1; serial and parallel execution produce bit-identical
results because both go through
:func:`repro.experiments.parallel.execute_job`.

Policy names (matching Figure 14's bar labels):

* ``dependence`` -- dependence-based steering, oldest-first scheduling
  (no criticality; a pre-Fields baseline).
* ``focused``    -- Fields et al.'s focused steering and scheduling.
* ``l``          -- + LoC-based scheduling (Section 4).
* ``s``          -- + stall-over-steer (Section 5).
* ``p``          -- + proactive load-balancing (Section 6).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.config import MachineConfig, clustered_machine, monolithic_machine
from repro.core.results import RunSummary
from repro.experiments.batch import batchable_config, fast_policy, prepared_trace
from repro.experiments.cache import RunCache
from repro.experiments.executor import Executor, executor_names, make_executor
from repro.experiments.outcomes import (
    ExecutionPolicy,
    JobOutcome,
    OutcomeStats,
    RunFailure,
    RunFailureError,
)
from repro.experiments.parallel import (
    PreparedWorkload,
    RunJob,
    dedupe_jobs,
    prepare_workload,  # noqa: F401 - unused here; perfbench/layers.py patches it
    run_job_outcome,
)
from repro.specs.policy import PolicySpec, canonical_policy, policy_names
from repro.workloads.common import KernelSpec
from repro.workloads.suite import SUITE

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "POLICY_NAMES",
    "PreparedWorkload",
    "Workbench",
]

# Derived from the preset registry (repro.specs.policy.PRESETS); kept as a
# module constant because it is a long-standing import target.
POLICY_NAMES = policy_names()

DEFAULT_INSTRUCTIONS = 12_000


class Workbench:
    """Caches canonical runs for one experiment pass.

    ``workers`` > 1 lets :meth:`prefetch` fan independent event-engine
    runs out over a process pool (batched runs stay in this process, on
    its trace memo); ``cache`` adds a persistent on-disk result store shared
    across workbenches and invocations.  ``simulations_run`` counts the
    simulations this workbench actually executed (cache hits excluded),
    which is how the CLI and the tests verify that a warm cache re-executes
    nothing.

    Observability (both opt-in, zero-cost when off): ``metrics=True``
    attaches a :class:`~repro.telemetry.recorder.TelemetryData` payload to
    every result this workbench runs; ``tracer`` collects wall-time spans
    around trace prep, warm-up, measurement and cache traffic.

    Backend selection: ``sim`` picks the timing loop ("event",
    "reference", or "batched"); event-mode jobs whose policy the batched
    backend supports are promoted to ``sim="batched"`` at :meth:`job`
    construction.  Jobs on one trace share one decode, precompute and
    canonical warm-up through the per-process trace memo
    (:mod:`repro.experiments.batch`).

    Execution backend: ``executor`` names the
    :class:`~repro.experiments.executor.Executor` :meth:`prefetch` fans
    pending jobs out through -- ``"local"`` (the in-process pool,
    default) or ``"distributed"`` (shard over ``repro worker`` processes
    at ``workers_endpoint``; see :mod:`repro.distwork`) -- or is a ready
    executor instance.  Call :meth:`close_executors` when done with a
    bench that used the distributed backend.
    """

    def __init__(
        self,
        instructions: int = DEFAULT_INSTRUCTIONS,
        seed: int = 0,
        benchmarks: Sequence[KernelSpec] | None = None,
        loc_mode: str = "probabilistic",
        workers: int = 0,
        cache: RunCache | None = None,
        sim: str = "event",
        metrics: bool = False,
        tracer=None,
        execution: ExecutionPolicy | None = None,
        executor: "str | Executor" = "local",
        workers_endpoint: str | None = None,
    ):
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        if sim not in ("event", "reference", "batched"):
            raise ValueError(
                f"unknown simulator {sim!r}; want 'event', 'reference' or 'batched'"
            )
        if isinstance(executor, str) and executor not in executor_names():
            raise ValueError(
                f"unknown executor {executor!r}; "
                f"want one of: {', '.join(executor_names())}"
            )
        self.instructions = instructions
        self.seed = seed
        self.benchmarks = tuple(benchmarks if benchmarks is not None else SUITE)
        self.loc_mode = loc_mode
        self.workers = workers
        self.cache = cache
        self.sim = sim
        self.metrics = metrics
        self.tracer = tracer
        self.execution = execution if execution is not None else ExecutionPolicy()
        self.executor = executor
        self.workers_endpoint = workers_endpoint
        self._executor_cache: dict[str, Executor] = {}
        self.exec_stats = OutcomeStats()
        if cache is not None and tracer is not None and cache.tracer is None:
            cache.tracer = tracer
        self.simulations_run = 0
        # Keyed by the full job: RunJob is frozen and its fields are
        # exactly the inputs that determine a run's output, so memory
        # identity coincides with the on-disk cache's hash domain.
        self._run_cache: dict[RunJob, RunSummary] = {}
        self._failures: dict[RunJob, JobOutcome] = {}

    # ------------------------------------------------------------------
    def prepare(self, spec: KernelSpec) -> PreparedWorkload:
        """The trace, dependences and mispredictions, from the trace memo."""
        key = (spec.name, self.instructions, self.seed, self.loc_mode)
        if self.tracer is None:
            return prepared_trace(*key)
        with self.tracer.span("trace-prep", kernel=spec.name):
            return prepared_trace(*key)

    # ------------------------------------------------------------------
    def job(
        self,
        spec: KernelSpec,
        config: MachineConfig,
        policy: str | PolicySpec,
        collect_ilp: bool = False,
        warm: bool = True,
    ) -> RunJob:
        """The picklable job describing one run of this workbench.

        ``policy`` may be a preset name or any :class:`~repro.specs.
        PolicySpec`; it is canonicalized (a spec that equals a preset
        collapses to the preset's name) so equal stacks produce equal --
        and therefore memory-cache-sharing -- jobs.

        An ``"event"`` job whose policy the batched backend supports is
        promoted to ``sim="batched"`` here, at construction -- so a
        figure's plan, its serial :meth:`run` calls and its parallel
        :meth:`prefetch` all agree on one job identity (and one cache
        key) regardless of how the job eventually executes.
        ``metrics=True`` and unsupported policies keep the event path.
        """
        policy = canonical_policy(policy)
        return RunJob(
            kernel=spec.name,
            instructions=self.instructions,
            seed=self.seed,
            loc_mode=self.loc_mode,
            config=config,
            policy=policy,
            collect_ilp=collect_ilp,
            warm=warm,
            sim=self.sim_for(policy, config),
            metrics=self.metrics,
        )

    def sim_for(
        self, policy: str | PolicySpec, config: MachineConfig | None = None
    ) -> str:
        """The backend a job running ``policy`` on this workbench uses.

        This is the single place the batched promotion decision lives:
        :meth:`job` and spec-built plans
        (:meth:`repro.specs.ExperimentSpec.jobs`) both route through it,
        so every way of constructing "the same run" lands on one job
        identity -- and therefore one cache key.  Pass a *canonical*
        policy (:func:`repro.specs.canonical_policy`) for best memoization.
        ``config`` keeps machines the batched engine cannot run (clusters
        with a zero-port pool need the dispatch-level capability
        redirect) on the event path.
        """
        if (
            self.sim == "event"
            and not self.metrics
            and fast_policy(policy) is not None
            and (config is None or batchable_config(config))
        ):
            return "batched"
        return self.sim

    def run(
        self,
        spec: KernelSpec,
        config: MachineConfig,
        policy: str | PolicySpec,
        collect_ilp: bool = False,
        warm: bool = True,
    ) -> RunSummary:
        """Run ``spec`` on ``config`` under ``policy`` (cached).

        Raises :class:`~repro.experiments.outcomes.RunFailureError` if the
        run fails past the workbench's retry budget (or failed earlier in
        this workbench's lifetime); use :meth:`outcome` to observe
        failures as values instead.
        """
        return self.outcome(spec, config, policy, collect_ilp, warm).unwrap()

    def outcome(
        self,
        spec: KernelSpec,
        config: MachineConfig,
        policy: str | PolicySpec,
        collect_ilp: bool = False,
        warm: bool = True,
    ) -> JobOutcome:
        """Like :meth:`run`, but failures settle as values, not exceptions.

        Cache hits come back as ok outcomes tagged ``source="memory"`` /
        ``"cache"``.  A job that already failed in this workbench's
        lifetime returns its recorded failure without re-running (one bad
        run must not stall a whole figure once per cell); a fresh run goes
        through :func:`~repro.experiments.parallel.run_job_outcome` under
        the workbench's :class:`~repro.experiments.outcomes.
        ExecutionPolicy`, so transient faults retry before the failure is
        accepted.  With ``fail_fast`` the failure raises instead.
        """
        job = self.job(spec, config, policy, collect_ilp, warm)
        cached = self._run_cache.get(job)
        if cached is not None:
            return JobOutcome(job=job, result=cached, attempts=0, source="memory")
        failed = self._failures.get(job)
        if failed is not None:
            return failed
        if self.cache is not None:
            loaded = self.cache.load(job)
            if loaded is not None:
                self._run_cache[job] = loaded
                return JobOutcome(job=job, result=loaded, attempts=0, source="cache")
        out = run_job_outcome(
            job, tracer=self.tracer, policy=self.execution, stats=self.exec_stats
        )
        self._settle(out)
        if not out.ok and self.execution.fail_fast:
            raise RunFailureError(job, out.failure)
        return out

    def _settle(self, outcome: JobOutcome) -> None:
        """Absorb one executed outcome into the caches / failure ledger.

        Only outcomes that actually *ran* a simulation count toward
        ``simulations_run`` and get flushed to the persistent cache; the
        distributed executor can settle a job from the shared on-disk
        cache (``source="cache"``) when another worker already stored it,
        and re-storing or re-counting those would lie about work done.
        (The local path settles everything as ``source="run"``, so its
        accounting is unchanged.)
        """
        job = outcome.job
        if outcome.ok:
            if outcome.source == "run":
                self.simulations_run += 1
                if self.cache is not None:
                    self.cache.store(job, outcome.result)
            self._run_cache[job] = outcome.result
            self._failures.pop(job, None)
        else:
            self._failures[job] = outcome

    # ------------------------------------------------------------------
    def prefetch(self, jobs: Iterable[RunJob], on_outcome=None, should_stop=None) -> int:
        """Materialize ``jobs`` into the caches, fanning out over workers.

        Already-cached jobs (memory or disk) are skipped, and so are jobs
        in the failure ledger, as in :meth:`outcome`; the rest go to the
        executor.  The local one runs them in-process, one after another,
        except that with ``workers`` > 1 the jobs that are not
        ``sim="batched"`` fan out over a process pool (under a
        ``job_timeout`` every job does; see
        :class:`~repro.experiments.executor.LocalPoolExecutor`).  Returns
        the number of simulations actually executed.  After a prefetch,
        the matching :meth:`run` calls are cache hits, so figure code can
        stay serial.

        Each job settles **as it completes**: successes go straight to
        the memory and persistent caches (so a ``KeyboardInterrupt``
        mid-sweep loses nothing already finished), failures land in the
        workbench's failure ledger for :meth:`failure_for` /
        :meth:`failed_outcomes`, and ``on_outcome`` -- when given -- sees
        every settled :class:`~repro.experiments.outcomes.JobOutcome`
        (checkpoint manifests hook in here).  Under ``fail_fast`` the
        first failure raises :class:`~repro.experiments.outcomes.
        RunFailureError` after in-flight work is torn down.

        ``should_stop`` is polled between jobs (and while awaiting pooled
        work); when it turns true the prefetch raises
        :class:`~repro.experiments.outcomes.ExecutionInterrupted` --
        already-settled jobs stay cached and journaled.
        """
        pending: list[RunJob] = []
        for job in dedupe_jobs(jobs):
            if job in self._run_cache or job in self._failures:
                continue
            if self.cache is not None:
                loaded = self.cache.load(job)
                if loaded is not None:
                    self._run_cache[job] = loaded
                    continue
            pending.append(job)
        if not pending:
            return 0
        executed_before = self.simulations_run

        def settle(outcome: JobOutcome) -> None:
            self._settle(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        self.resolve_executor().execute(
            pending,
            tracer=self.tracer,
            policy=self.execution,
            on_outcome=settle,
            stats=self.exec_stats,
            should_stop=should_stop,
        )
        return self.simulations_run - executed_before

    def resolve_executor(self) -> Executor:
        """The :class:`~repro.experiments.executor.Executor` prefetch uses.

        ``executor`` may be a backend name (``"local"`` /
        ``"distributed"``) or a ready :class:`Executor` instance.  Named
        backends are built through
        :func:`~repro.experiments.executor.make_executor` and cached per
        name, so a distributed executor keeps its coordinator transport
        alive across prefetch calls (a sweep is many prefetches); the
        local backend is stateless, so caching it is merely free.
        """
        if not isinstance(self.executor, str):
            return self.executor
        cached = self._executor_cache.get(self.executor)
        if cached is None:
            cached = make_executor(
                self.executor,
                workers=self.workers,
                endpoint=self.workers_endpoint,
            )
            self._executor_cache[self.executor] = cached
        return cached

    def close_executors(self) -> None:
        """Release executor-held resources (distributed transports)."""
        for executor in self._executor_cache.values():
            executor.close()
        self._executor_cache.clear()

    # ------------------------------------------------------------------
    def result_for(self, job: RunJob) -> RunSummary | None:
        """The already-materialized result for ``job``, if any (no run)."""
        return self._run_cache.get(job)

    def failure_for(self, job: RunJob) -> JobOutcome | None:
        """The recorded failed outcome for ``job``, if any (no run)."""
        return self._failures.get(job)

    def failed_outcomes(self) -> list[JobOutcome]:
        """Every failed outcome this workbench has recorded, in order."""
        return list(self._failures.values())

    def record_failure(self, job: RunJob, failure: RunFailure) -> None:
        """Ledger a failure settled elsewhere, unless ``job`` has a result."""
        if job not in self._run_cache:
            self._failures[job] = JobOutcome(
                job=job, failure=failure, attempts=failure.attempts, elapsed=failure.elapsed
            )

    def forget_failures(self, jobs: Iterable[RunJob]) -> None:
        """Drop ``jobs`` from the ledger, so the next prefetch retries them."""
        for job in jobs:
            self._failures.pop(job, None)

    def forget(self, jobs: Iterable[RunJob]) -> None:
        """Drop ``jobs``' results and failures from memory.

        The persistent cache keeps the results; a later run of a job
        loads it from there, or simulates it again without one.
        """
        for job in jobs:
            self._run_cache.pop(job, None)
            self._failures.pop(job, None)

    def cached_results(self) -> list[tuple[RunJob, RunSummary]]:
        """Every (job, result) this workbench has materialized, in order.

        The run-report builder walks this to aggregate a whole experiment
        invocation without re-running anything.
        """
        return list(self._run_cache.items())

    # ------------------------------------------------------------------
    def monolithic_baseline(
        self, spec: KernelSpec, policy: str | PolicySpec = "l"
    ) -> RunSummary:
        """The 1x8w run results are normalized against."""
        return self.run(spec, monolithic_machine(), policy)

    def clustered(self, num_clusters: int, forwarding_latency: int = 2) -> MachineConfig:
        """Convenience passthrough."""
        return clustered_machine(num_clusters, forwarding_latency=forwarding_latency)
