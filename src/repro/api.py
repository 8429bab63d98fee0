"""The stable public API of the reproduction.

Import everything from here::

    from repro.api import Workbench, run, figure

``repro.api`` is the one semver-governed surface of the package: every
name in :data:`__all__` keeps its signature and semantics within a major
version (see ``docs/API.md``).  Deep imports
(``repro.experiments.harness`` and friends) continue to work but are
implementation detail -- they may move between minor versions.

The surface covers everything needed to reproduce the paper end to end
without a single deep import:

* **specs & registries** -- the declarative layer
  (:class:`MachineSpec`, :class:`PolicySpec`, :class:`ExperimentSpec`,
  :func:`load_spec`, :func:`run_spec`, :func:`spec_hash`) and the
  component registries out-of-tree policies plug into
  (:func:`register_steering`, :func:`register_scheduler`,
  :func:`register_predictor`);
* **workbench & execution** -- :class:`Workbench`, :class:`RunCache`,
  :class:`RunJob`, :func:`execute_job` (a job's :class:`RunSummary`),
  :func:`simulate` (its full :class:`SimulationResult`, in-process),
  :func:`summarize`, :func:`job_key`, :func:`prepare_workload`,
  :func:`run_seeded`, :func:`average_figures`;
* **fault tolerance & checkpointing** -- :class:`ExecutionPolicy` (retry
  / timeout / fail-fast knobs), :class:`JobOutcome` and
  :class:`RunFailure` (failures as values), :func:`execute_outcomes`,
  :func:`run_job_outcome`, :class:`SweepManifest` (sweep
  checkpoint/resume) and :class:`SimulationDiverged`;
* **execution backends** -- the :class:`Executor` protocol and its two
  implementations, :class:`LocalPoolExecutor` (the in-process pool) and
  :class:`DistributedExecutor` (sharding over ``repro worker``
  processes), plus :func:`executor_names` / :func:`make_executor`;
* **figures** -- :data:`EXPERIMENTS`, :data:`PLANS`, :func:`figure`,
  :func:`list_figures`, plus every ``run_*`` / ``plan_*`` pair;
* **machines & policies** -- config constructors, both simulators, all
  steering and scheduling policies;
* **criticality & analysis** -- the critical-path model, slack, LoC,
  CPI breakdown, event classification, pipeline views;
* **workloads & VM** -- the kernel suite, trace patterns, assembler and
  interpreter (:func:`interpret` -- renamed from ``vm.interpreter.run``
  to leave :func:`run` for the single-simulation helper);
* **telemetry** -- :class:`Recorder`, :class:`Tracer`,
  :class:`RunReport` and the payload/serialization types
  (:mod:`repro.telemetry`);
* **service** -- the ``repro serve`` job API: :func:`serve`,
  :class:`ReproServer`, :class:`BackgroundServer`, the HTTP
  :class:`Client` and the typed :class:`ServiceError`
  (:mod:`repro.service`).

Convenience entry points defined here (not re-exports): :func:`run` (one
simulation from names), :func:`sweep` (the cartesian product of kernels,
configs and policies), :func:`figure` (a registry lookup that builds the
workbench for you) and :func:`list_figures`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import __version__
from repro.analysis.breakdown import cpi_breakdown
from repro.analysis.consumers import exact_loc_by_pc
from repro.analysis.events import classify_lost_cycle_events
from repro.analysis.pipeview import contention_hotspots, render_pipeline
from repro.analysis.summary import summarize
from repro.core.config import (
    ClusterConfig,
    MachineConfig,
    clustered_machine,
    monolithic_machine,
)
from repro.core.instruction import (
    CommitReason,
    DispatchReason,
    InFlight,
    SteerCause,
)
from repro.core.reference import ReferenceSimulator
from repro.core.rename import Dependences, extract_dependences
from repro.core.results import IlpProfile, RunSummary, SimulationResult
from repro.core.scheduling.policies import (
    CriticalFirstScheduler,
    LocScheduler,
    OldestFirstScheduler,
    SchedulingPolicy,
)
from repro.core.serialize import (
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
    results_identical,
)
from repro.core.simulator import ClusteredSimulator
from repro.core.steering.base import SteeringDecision, SteeringPolicy
from repro.core.steering.dependence import (
    CriticalitySteering,
    CriticalitySteeringConfig,
    DependenceSteering,
)
from repro.core.steering.simple import LoadBalanceSteering, ModuloSteering
from repro.criticality.critical_path import analyze_critical_path, critical_flags
from repro.criticality.loc import LocPredictor, PredictorSuite
from repro.criticality.slack import compute_global_slack, slack_histogram
from repro.core.simulator import SimulationDiverged
from repro.experiments import EXPERIMENTS, PLANS, SPECS, FigureData
from repro.experiments.aggregate import average_figures, run_seeded
from repro.experiments.cache import RunCache, default_cache_dir, job_key
from repro.experiments.distributed import DistributedExecutor
from repro.experiments.executor import (
    BreakerExecutor,
    CircuitBreaker,
    Executor,
    LocalPoolExecutor,
    executor_names,
    make_executor,
)
from repro.experiments.harness import DEFAULT_INSTRUCTIONS, POLICY_NAMES, Workbench
from repro.experiments.manifest import SweepManifest, default_manifest_dir
from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    ExecutorUnavailable,
    GarbageResult,
    JobOutcome,
    OutcomeStats,
    RunFailure,
    RunFailureError,
)
from repro.experiments.parallel import (
    PreparedWorkload,
    RunJob,
    execute_job,
    execute_outcomes,
    prepare_workload,
    run_job_outcome,
    simulate,
)
from repro.experiments.sweep import run_spec
from repro.service import (
    AdmissionController,
    BackgroundServer,
    Client,
    DurableStore,
    QuotaManager,
    ReproServer,
    SERVICE_ERROR_SCHEMA,
    STORE_SCHEMA,
    ServiceError,
    TokenBucket,
    default_store_dir,
    serve,
)
from repro.specs import (
    PRESETS,
    ExperimentSpec,
    MachineSpec,
    PolicySpec,
    PredictorSpec,
    SchedulerSpec,
    SpecError,
    SteeringSpec,
    SweepSpec,
    WorkloadSpec,
    canonical_policy,
    load_spec,
    policy_label,
    policy_names,
    register_predictor,
    register_scheduler,
    register_steering,
    resolve_policy,
    spec_hash,
)
from repro.frontend.branch_predictor import (
    GshareBranchPredictor,
    annotate_mispredictions,
)
from repro.telemetry import (
    DEFAULT_INTERVAL,
    REPORT_SCHEMA,
    NullTelemetry,
    Recorder,
    RunReport,
    Span,
    Telemetry,
    TelemetryData,
    Tracer,
    telemetry_from_dict,
    telemetry_to_dict,
    validate_report,
)
from repro.util.rng import seeded_rng
from repro.util.tables import format_histogram, format_table
from repro.vm.assembler import assemble
from repro.vm.interpreter import run as interpret
from repro.workloads.patterns import (
    convergent_pairs,
    divergent_tree,
    load_chain,
    mixed_criticality,
    parallel_chains,
    serial_chain,
)
from repro.workloads.suite import SUITE, get_kernel, suite_names

# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def run(
    kernel: str,
    config: MachineConfig | None = None,
    policy: str = "l",
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    metrics: bool = False,
    **job_kwargs,
) -> SimulationResult:
    """One simulation from plain names: the shortest path to a result.

    Runs in this process, without a cache, and returns the full
    :class:`SimulationResult`, records included.  ``config`` defaults to
    the paper's 4-cluster machine; any remaining :class:`RunJob` field
    (``warm``, ``sim``, ``collect_ilp``, ``loc_mode``) can be overridden
    through ``job_kwargs``.
    """
    job = RunJob(
        kernel=kernel,
        instructions=instructions,
        seed=seed,
        loc_mode=job_kwargs.pop("loc_mode", "probabilistic"),
        config=config if config is not None else clustered_machine(4),
        policy=policy,
        metrics=metrics,
        **job_kwargs,
    )
    return simulate(job)


def sweep(
    kernels: Iterable[str],
    configs: Sequence[MachineConfig],
    policies: Sequence[str] = ("l",),
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 0,
    workers: int = 0,
    cache: RunCache | None = None,
    metrics: bool = False,
) -> dict[tuple[str, str, str], RunSummary]:
    """The cartesian product of kernels x configs x policies, as a dict.

    Keys are ``(kernel, config.name, policy)``; values are the runs'
    :class:`RunSummary`\\ s, through the same workbench caching layer the
    figures use, so repeated sweeps hit the cache.
    """
    bench = Workbench(
        instructions=instructions,
        seed=seed,
        workers=workers,
        cache=cache,
        metrics=metrics,
    )
    jobs = [
        bench.job(get_kernel(kernel), config, policy)
        for kernel in kernels
        for config in configs
        for policy in policies
    ]
    bench.prefetch(jobs)
    results = {}
    for kernel in kernels:
        spec = get_kernel(kernel)
        for config in configs:
            for policy in policies:
                results[(spec.name, config.name, policy)] = bench.run(
                    spec, config, policy
                )
    return results


def list_figures() -> list[str]:
    """Registry names accepted by :func:`figure` and the CLI."""
    return list(EXPERIMENTS)


def figure(
    name: str,
    bench: Workbench | None = None,
    **workbench_kwargs,
) -> FigureData:
    """Reproduce one registered figure or in-text claim by name.

    Pass an existing :class:`Workbench` to share its caches, or keyword
    arguments (``instructions``, ``workers``, ``cache``, ...) to build a
    fresh one.
    """
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    if bench is None:
        bench = Workbench(**workbench_kwargs)
    elif workbench_kwargs:
        raise ValueError("pass either a Workbench or workbench kwargs, not both")
    return experiment(bench)


__all__ = [
    # convenience
    "figure",
    "interpret",
    "list_figures",
    "run",
    "sweep",
    # version
    "__version__",
    # workbench & execution
    "DEFAULT_INSTRUCTIONS",
    "BreakerExecutor",
    "CircuitBreaker",
    "DistributedExecutor",
    "Executor",
    "ExecutorUnavailable",
    "LocalPoolExecutor",
    "POLICY_NAMES",
    "PreparedWorkload",
    "RunCache",
    "RunJob",
    "Workbench",
    "average_figures",
    "default_cache_dir",
    "execute_job",
    "execute_outcomes",
    "executor_names",
    "job_key",
    "make_executor",
    "prepare_workload",
    "run_job_outcome",
    "run_seeded",
    "simulate",
    # fault tolerance & checkpointing
    "ExecutionInterrupted",
    "ExecutionPolicy",
    "GarbageResult",
    "JobOutcome",
    "OutcomeStats",
    "RunFailure",
    "RunFailureError",
    "SimulationDiverged",
    "SweepManifest",
    "default_manifest_dir",
    # service (repro serve)
    "AdmissionController",
    "BackgroundServer",
    "Client",
    "DurableStore",
    "QuotaManager",
    "ReproServer",
    "SERVICE_ERROR_SCHEMA",
    "STORE_SCHEMA",
    "ServiceError",
    "TokenBucket",
    "default_store_dir",
    "serve",
    # figures
    "EXPERIMENTS",
    "FigureData",
    "PLANS",
    "SPECS",
    # specs & registries
    "ExperimentSpec",
    "MachineSpec",
    "PRESETS",
    "PolicySpec",
    "PredictorSpec",
    "SchedulerSpec",
    "SpecError",
    "SteeringSpec",
    "SweepSpec",
    "WorkloadSpec",
    "canonical_policy",
    "load_spec",
    "policy_label",
    "policy_names",
    "register_predictor",
    "register_scheduler",
    "register_steering",
    "resolve_policy",
    "run_spec",
    "spec_hash",
    # machines
    "ClusterConfig",
    "MachineConfig",
    "clustered_machine",
    "monolithic_machine",
    # simulators & results
    "ClusteredSimulator",
    "CommitReason",
    "Dependences",
    "DispatchReason",
    "IlpProfile",
    "InFlight",
    "ReferenceSimulator",
    "RunSummary",
    "SimulationResult",
    "SteerCause",
    "config_from_dict",
    "config_to_dict",
    "extract_dependences",
    "result_from_dict",
    "result_to_dict",
    "results_identical",
    # steering & scheduling
    "CriticalFirstScheduler",
    "CriticalitySteering",
    "CriticalitySteeringConfig",
    "DependenceSteering",
    "LoadBalanceSteering",
    "LocScheduler",
    "ModuloSteering",
    "OldestFirstScheduler",
    "SchedulingPolicy",
    "SteeringDecision",
    "SteeringPolicy",
    # criticality & analysis
    "LocPredictor",
    "PredictorSuite",
    "analyze_critical_path",
    "classify_lost_cycle_events",
    "compute_global_slack",
    "contention_hotspots",
    "cpi_breakdown",
    "critical_flags",
    "exact_loc_by_pc",
    "render_pipeline",
    "slack_histogram",
    "summarize",
    # workloads & VM
    "SUITE",
    "assemble",
    "convergent_pairs",
    "divergent_tree",
    "get_kernel",
    "load_chain",
    "mixed_criticality",
    "parallel_chains",
    "seeded_rng",
    "serial_chain",
    "suite_names",
    # frontend
    "GshareBranchPredictor",
    "annotate_mispredictions",
    # telemetry
    "DEFAULT_INTERVAL",
    "NullTelemetry",
    "REPORT_SCHEMA",
    "Recorder",
    "RunReport",
    "Span",
    "Telemetry",
    "TelemetryData",
    "Tracer",
    "telemetry_from_dict",
    "telemetry_to_dict",
    "validate_report",
    # formatting
    "format_histogram",
    "format_table",
]
