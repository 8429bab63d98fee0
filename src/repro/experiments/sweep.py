"""Run an arbitrary :class:`~repro.specs.ExperimentSpec` end-to-end.

This is what the CLI's ``--spec path.json`` executes: the spec's jobs
are prefetched through the workbench (parallel workers + persistent
cache + the fault-tolerant executor), then either

* the spec links itself to a reproduced figure (``figure`` field): the
  runner first verifies the spec's job set matches the figure's plan --
  so a stale or edited spec cannot silently masquerade as the figure --
  and then renders the figure's own table, byte-identical to running the
  figure by name; or
* the spec is a free-form sweep: a generic table with one row per run
  (benchmark x machine x policy) reporting cycles, CPI and IPC.  Runs
  that failed past their retry budget render as explicit ``FAILED(...)``
  / ``TIMEOUT`` cells instead of killing the sweep.

Checkpoint/resume: pass a :class:`~repro.experiments.manifest.
SweepManifest` (the CLI opens one per spec, keyed by
:func:`~repro.specs.spec_hash`, whenever the persistent cache is on) and
every settled job is recorded and appended to it as it completes.
A sweep killed mid-flight -- ``KeyboardInterrupt`` included -- therefore
resumes re-executing only its unfinished jobs: finished results return
from the run cache, and the manifest supplies the "resumed N" note.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.experiments.cache import job_key
from repro.experiments.figure import FigureData, annotate_failures
from repro.experiments.harness import Workbench
from repro.experiments.manifest import SweepManifest
from repro.experiments.outcomes import JobOutcome
from repro.specs import ExperimentSpec, SpecError, policy_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import RunReport

__all__ = ["run_report", "run_spec", "spec_execution"]


def _figure_runner(name: str):
    from repro.experiments import EXPERIMENTS

    runner = EXPERIMENTS.get(name)
    if runner is None:
        raise SpecError(
            f"spec links to unknown figure {name!r}; known: "
            f"{', '.join(EXPERIMENTS)}"
        )
    return runner


def _verify_figure_jobs(spec: ExperimentSpec, bench: Workbench) -> None:
    from repro.experiments import PLANS

    plan = PLANS.get(spec.figure)
    if plan is None:
        return
    planned = set(plan(bench))
    declared = set(spec.jobs(bench))
    if planned != declared:
        missing = len(planned - declared)
        extra = len(declared - planned)
        raise SpecError(
            f"spec {spec.name!r} claims figure {spec.figure!r} but its job "
            f"set differs from the figure's plan ({missing} missing, "
            f"{extra} extra); drop the 'figure' field to run it as a "
            "free-form sweep"
        )


def _job_key(bench: Workbench):
    """:func:`job_key`, through the run cache's per-job memo when there is one."""
    return bench.cache.key_for if bench.cache is not None else job_key


def _prefetch_checkpointed(
    bench: Workbench, jobs: list, manifest: SweepManifest | None
) -> None:
    """Prefetch ``jobs``, journaling each settled outcome to ``manifest``.

    The manifest is saved after every settled job (one appended line of
    a few hundred bytes, whatever the sweep's size) and force-saved on
    the way out of *any* exit path, so an interrupt cannot lose the
    record of what already finished.
    """
    if manifest is None:
        bench.prefetch(jobs)
        return

    key = _job_key(bench)

    def record(outcome: JobOutcome) -> None:
        manifest.record(key(outcome.job), outcome)
        manifest.save()

    try:
        bench.prefetch(jobs, on_outcome=record)
    finally:
        manifest.save(force=True)


@contextmanager
def spec_execution(bench: Workbench, spec: ExperimentSpec) -> Iterator[None]:
    """Apply ``spec``'s ``execution`` block to a shared ``bench``, then restore it.

    A spec naming the backend the bench already runs keeps the bench's
    instance (the service's may be breaker-wrapped); another backend is
    swapped in by name.
    """
    saved_execution, saved_executor = bench.execution, bench.executor
    bench.execution = spec.execution_policy(saved_execution)
    name = (spec.execution or {}).get("executor")
    if name is not None and name != getattr(saved_executor, "name", saved_executor):
        bench.executor = name
    try:
        yield
    finally:
        bench.execution, bench.executor = saved_execution, saved_executor


def run_spec(
    bench: Workbench,
    spec: ExperimentSpec,
    manifest: SweepManifest | None = None,
) -> FigureData:
    """Execute ``spec`` on ``bench`` and return its figure table."""
    with spec_execution(bench, spec):
        return _run_spec(bench, spec, manifest)


def _run_spec(
    bench: Workbench,
    spec: ExperimentSpec,
    manifest: SweepManifest | None,
) -> FigureData:
    jobs = spec.jobs(bench)
    if spec.figure is not None:
        _verify_figure_jobs(spec, bench)
        _prefetch_checkpointed(bench, jobs, manifest)
        figure = _figure_runner(spec.figure)(bench)
    else:
        _prefetch_checkpointed(bench, jobs, manifest)
        figure = FigureData(
            figure_id=spec.name,
            title=spec.description or f"Custom sweep {spec.name!r}",
            headers=["benchmark", "machine", "policy", "cycles", "cpi", "ipc"],
        )
        failed: list[JobOutcome] = []
        for job in jobs:
            result = bench.result_for(job)
            if result is not None:
                figure.add_row(
                    job.kernel,
                    job.config.name,
                    policy_label(job.policy),
                    result.cycles,
                    result.cpi,
                    result.ipc,
                )
                continue
            outcome = bench.failure_for(job)
            if outcome is None:
                # prefetch settles exactly these jobs, so this cannot
                # happen short of a workbench bug; fail loudly over
                # mislabeling.
                raise RuntimeError(f"prefetched job has no outcome: {job}")
            failed.append(outcome)
            label = outcome.failure.label()
            figure.add_row(
                job.kernel,
                job.config.name,
                policy_label(job.policy),
                label,
                label,
                label,
            )
        annotate_failures(figure, failed)
    if manifest is not None:
        key = _job_key(bench)
        resumed = manifest.resumed & {key(job) for job in jobs}
        if resumed:
            figure.notes.append(
                f"resumed: {len(resumed)} of {len(jobs)} job(s) already "
                "completed by an earlier run (results from the run cache)"
            )
    return figure


def run_report(bench: Workbench, name: str, jobs: list, **fields) -> RunReport:
    """The :class:`~repro.telemetry.RunReport` of experiment ``name``.

    Only ``jobs`` -- the experiment's own, in plan order -- contribute
    runs and failure rows, so a report never lists what another
    experiment on the same bench ran or lost.  ``fields`` pass through to
    :meth:`~repro.telemetry.RunReport.from_runs`.
    """
    from repro.telemetry import RunReport

    runs = [(job, bench.result_for(job)) for job in jobs if bench.result_for(job) is not None]
    failed = (bench.failure_for(job) for job in dict.fromkeys(jobs))
    failures = [
        {
            "kernel": o.job.kernel,
            "config": o.job.config.name,
            "policy": policy_label(o.job.policy),
            **o.failure.to_dict(),
        }
        for o in failed
        if o is not None
    ]
    workbench = {
        "instructions": bench.instructions,
        "seed": bench.seed,
        "loc_mode": bench.loc_mode,
        "workers": bench.workers,
        "sim": bench.sim,
        "benchmarks": [spec.name for spec in bench.benchmarks],
    }
    return RunReport.from_runs(name, runs, failures=failures, workbench=workbench, **fields)
