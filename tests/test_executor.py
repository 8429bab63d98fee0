"""The :class:`~repro.experiments.executor.Executor` protocol layer.

The refactor contract: execution backends are interchangeable behind one
protocol, ``LocalPoolExecutor`` gives bit-identical results in-process or
on one-child lanes, and the registry (:func:`make_executor`) validates
names and endpoints up front.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.serialize import results_identical
from repro.experiments.batch import clear_trace_memo
from repro.experiments.cache import job_key
from repro.experiments.distributed import DistributedExecutor
from repro.experiments.executor import (
    EXECUTOR_NAMES,
    Executor,
    LocalPoolExecutor,
    executor_names,
    make_executor,
)
from repro.experiments.fig14 import plan_figure14
from repro.experiments.harness import Workbench
from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    OutcomeStats,
    RunFailureError,
)
from repro.experiments.parallel import execute_job
from repro.experiments.sweep import run_spec
from repro.specs import ExperimentSpec, MachineSpec, SpecError, SweepSpec, spec_hash
from repro.telemetry.tracing import Tracer
from repro.testing.chaos import ChaosConfig, FaultRule, install, uninstall
from repro.workloads.suite import get_kernel

REPO = pathlib.Path(__file__).resolve().parents[1]
INSTRUCTIONS = 400
KERNELS = ("gcc", "mcf")


def make_bench(**kwargs):
    kwargs.setdefault("instructions", INSTRUCTIONS)
    kwargs.setdefault("benchmarks", [get_kernel(k) for k in KERNELS])
    return Workbench(**kwargs)


def make_jobs(bench, policies=("l", "s")):
    return [
        bench.job(get_kernel(kernel), bench.clustered(2), policy)
        for kernel in KERNELS
        for policy in policies
    ]


class TestRegistry:
    def test_names(self):
        assert executor_names() == EXECUTOR_NAMES == ("local", "distributed")

    def test_make_local(self):
        executor = make_executor("local", workers=3)
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.workers == 3
        assert executor.name == "local"

    def test_make_distributed_needs_endpoint(self):
        with pytest.raises(ValueError, match="workers endpoint"):
            make_executor("distributed")

    def test_make_distributed(self):
        executor = make_executor("distributed", endpoint="127.0.0.1:0")
        try:
            assert isinstance(executor, DistributedExecutor)
            assert executor.name == "distributed"
        finally:
            executor.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("bogus")

    def test_protocol_is_runtime_checkable(self):
        assert isinstance(LocalPoolExecutor(), Executor)
        distributed = DistributedExecutor("127.0.0.1:0")
        try:
            assert isinstance(distributed, Executor)
        finally:
            distributed.close()


class TestLocalPoolExecutor:
    def test_outcomes_in_submission_order_and_bit_identical(self):
        bench = make_bench()
        jobs = make_jobs(bench)
        seen: list[tuple[str, int]] = []

        def on_outcome(outcome):
            seen.append((threading.get_ident(), 1))

        stats = OutcomeStats()
        executor = LocalPoolExecutor()
        outcomes = executor.execute(
            jobs,
            policy=ExecutionPolicy(),
            on_outcome=on_outcome,
            stats=stats,
        )
        assert [outcome.job for outcome in outcomes] == jobs
        assert all(outcome.ok for outcome in outcomes)
        assert stats.executed == len(jobs)
        # on_outcome fires on the calling thread, once per job.
        assert [tid for tid, _ in seen] == [threading.get_ident()] * len(jobs)
        for job, outcome in zip(jobs, outcomes):
            assert results_identical(execute_job(job), outcome.result)

    def test_workbench_resolves_and_caches_executor(self):
        bench = make_bench()
        executor = bench.resolve_executor()
        assert isinstance(executor, LocalPoolExecutor)
        assert bench.resolve_executor() is executor
        bench.close_executors()
        assert bench.resolve_executor() is not executor

    def test_workbench_accepts_executor_instance(self):
        sentinel = LocalPoolExecutor(workers=0)
        bench = make_bench(executor=sentinel)
        assert bench.resolve_executor() is sentinel

    def test_workbench_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="bogus"):
            make_bench(executor="bogus")


@pytest.fixture
def pool_log(monkeypatch):
    """Count the pools the local executor builds and the jobs it submits."""
    from repro.experiments import executor

    log = SimpleNamespace(pools=0, jobs=[])

    class RecordingPool(executor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log.pools += 1
            super().__init__(*args, **kwargs)

        def submit(self, fn, payload):
            log.jobs.append(payload[0])  # _pool_attempt's (job, attempt, traced, fault)
            return super().submit(fn, payload)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", RecordingPool)
    return log


class TestWhereJobsRun:
    """With ``workers > 1``, batched jobs stay in-process on the trace memo."""

    def test_batched_figure14_plan_never_builds_a_pool(self, pool_log):
        kernels = [get_kernel(k) for k in KERNELS]
        bench = Workbench(instructions=INSTRUCTIONS, benchmarks=kernels, workers=2)
        jobs = plan_figure14(bench)
        assert {job.kernel for job in jobs} == set(KERNELS)
        assert all(job.sim == "batched" for job in jobs)
        assert bench.prefetch(jobs) == len(jobs)
        assert pool_log.pools == 0
        clear_trace_memo()
        serial = Workbench(instructions=INSTRUCTIONS, benchmarks=kernels)
        assert serial.prefetch(jobs) == len(jobs)
        for job in jobs:
            assert results_identical(bench.result_for(job), serial.result_for(job))

    @pytest.mark.parametrize("route", ["job_timeout", "chaos"])
    def test_timeout_or_chaos_sends_batched_jobs_to_the_pool(
        self, route, pool_log, monkeypatch
    ):
        # Only a pool worker can be killed mid-attempt, and the chaos
        # suite exercises pool recovery.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        execution = None
        if route == "job_timeout":
            execution = ExecutionPolicy(job_timeout=120.0)
        else:
            monkeypatch.setenv("REPRO_CHAOS", ChaosConfig().env_value())
        bench = make_bench(workers=2, execution=execution)
        jobs = make_jobs(bench)
        assert all(job.sim == "batched" for job in jobs)
        assert bench.prefetch(jobs) == len(jobs)
        assert sorted(pool_log.jobs, key=job_key) == sorted(jobs, key=job_key)
        for job in jobs:
            assert results_identical(bench.result_for(job), execute_job(job))

    def test_mixed_plan_pools_only_event_jobs_and_keeps_order(self, pool_log):
        bench = make_bench()
        batched = make_jobs(bench)
        event = [bench.job(get_kernel(k), bench.clustered(2), "readiness") for k in KERNELS]
        assert {job.sim for job in event} == {"event"}
        jobs = [batched[0], event[0], batched[1], batched[2], event[1], batched[3]]
        settled: list = []
        outcomes = LocalPoolExecutor(workers=2).execute(
            jobs, on_outcome=lambda outcome: settled.append(outcome.job)
        )
        assert [outcome.job for outcome in outcomes] == jobs
        assert sorted(pool_log.jobs, key=job_key) == sorted(event, key=job_key)
        # In-process jobs settle first, in submission order.
        assert settled[: len(batched)] == batched
        for job, outcome in zip(jobs, outcomes):
            assert results_identical(outcome.unwrap(), execute_job(job))


def set_chaos(monkeypatch, *rules, hang_seconds=30.0):
    """Schedule ``rules`` inside lane children through ``REPRO_CHAOS``."""
    config = ChaosConfig(rules=rules, hang_seconds=hang_seconds)
    monkeypatch.setenv("REPRO_CHAOS", config.env_value())


def readiness_jobs(bench, clusters=(2,)):
    """Event-engine jobs (readiness steering is not batchable)."""
    return [
        bench.job(get_kernel(kernel), bench.clustered(n), "readiness")
        for kernel in KERNELS
        for n in clusters
    ]


class TestLanes:
    """Pooled jobs run on one-child lanes; a child's fate is its job's."""

    def test_a_job_is_not_charged_for_a_siblings_crash(self, monkeypatch):
        set_chaos(
            monkeypatch,
            FaultRule(mode="crash", match={"kernel": "gcc"}, attempts=(1,)),
            FaultRule(mode="hang", match={"kernel": "mcf"}, attempts=(1,)),
            hang_seconds=2.0,
        )
        gcc, mcf = jobs = readiness_jobs(make_bench())
        stats = OutcomeStats()
        crashed, survived = LocalPoolExecutor(workers=2).execute(
            jobs, policy=ExecutionPolicy(max_retries=0), stats=stats
        )
        assert (survived.job, survived.ok, survived.attempts) == (mcf, True, 1)
        assert results_identical(survived.result, execute_job(mcf))
        assert (crashed.job, crashed.ok, crashed.attempts) == (gcc, False, 1)
        assert crashed.failure.kind == "crash"
        assert stats.pool_respawns == 1

    def test_a_lane_degrades_to_in_process_after_repeated_deaths(self, monkeypatch):
        set_chaos(monkeypatch, FaultRule(mode="crash", match={"kernel": "gcc"}))
        gcc, mcf = jobs = readiness_jobs(make_bench())
        tracer = Tracer()
        stats = OutcomeStats()
        crashed, clean = LocalPoolExecutor(workers=2).execute(
            jobs,
            tracer=tracer,
            policy=ExecutionPolicy(max_retries=4, max_pool_respawns=1),
            stats=stats,
        )
        # Two child deaths, then gcc's lane runs attempts 3-5 in-process,
        # where an injected crash raises instead of killing the host.
        assert (crashed.job, crashed.ok, crashed.attempts) == (gcc, False, 5)
        assert crashed.failure.kind == "injected"
        assert (clean.job, clean.ok, clean.attempts) == (mcf, True, 1)
        assert [span.name for span in tracer.spans].count("pool.degrade-serial") == 1
        assert stats.retries == 4
        assert stats.pool_respawns == 2

    def test_more_lanes_than_cores_settle_each_job_once(self):
        # Lane threads share one job queue and one outcome queue; switch
        # threads as often as possible to shake out a lost or doubled job.
        jobs = readiness_jobs(make_bench(), clusters=(2, 4, 8))
        settled: list = []
        stats = OutcomeStats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            outcomes = LocalPoolExecutor(workers=4).execute(
                jobs, on_outcome=lambda outcome: settled.append(outcome.job), stats=stats
            )
            assert time.monotonic() - start < 60.0
        finally:
            sys.setswitchinterval(interval)
        assert [outcome.job for outcome in outcomes] == jobs
        assert sorted(settled, key=job_key) == sorted(jobs, key=job_key)
        assert stats.executed == len(jobs)
        for job, outcome in zip(jobs, outcomes):
            assert results_identical(outcome.unwrap(), execute_job(job))

    def test_lanes_whose_children_die_together_each_respawn(self, monkeypatch):
        # Every first attempt kills its child, so each lane starts a new
        # one from its own thread while the others are starting theirs.
        set_chaos(monkeypatch, FaultRule(mode="crash", attempts=(1,)))
        jobs = readiness_jobs(make_bench(), clusters=(2, 4))
        stats = OutcomeStats()
        outcomes = LocalPoolExecutor(workers=len(jobs)).execute(jobs, stats=stats)
        assert [(outcome.ok, outcome.attempts) for outcome in outcomes] == [(True, 2)] * 4
        assert stats.pool_respawns == len(jobs)

    @pytest.mark.parametrize("stop_by", ["fail_fast", "should_stop"])
    def test_lanes_still_running_are_torn_down(self, monkeypatch, stop_by):
        set_chaos(
            monkeypatch,
            FaultRule(mode="error", match={"kernel": "gcc"}),
            FaultRule(mode="hang", match={"kernel": "mcf"}),
        )
        jobs = readiness_jobs(make_bench())
        before = set(multiprocessing.active_children())
        settled: list = []
        if stop_by == "fail_fast":
            expected = RunFailureError
            policy = ExecutionPolicy(max_retries=0, fail_fast=True)
            should_stop = None
        else:
            expected = ExecutionInterrupted
            policy = ExecutionPolicy(max_retries=0)
            should_stop = lambda: bool(settled)  # noqa: E731
        start = time.monotonic()
        with pytest.raises(expected):
            LocalPoolExecutor(workers=2).execute(
                jobs, policy=policy, on_outcome=settled.append, should_stop=should_stop
            )
        assert time.monotonic() - start < 5.0  # nowhere near mcf's 30 s hang
        assert [outcome.job.kernel for outcome in settled] == ["gcc"]
        deadline = time.monotonic() + 2.0
        while set(multiprocessing.active_children()) - before:
            assert time.monotonic() < deadline, "a lane child outlived the sweep"
            time.sleep(0.05)

    def test_no_pool_thread_outlives_execute(self):
        jobs = readiness_jobs(make_bench())
        before = set(threading.enumerate())
        outcomes = LocalPoolExecutor(workers=2).execute(jobs)
        assert all(outcome.ok for outcome in outcomes)
        assert set(threading.enumerate()) <= before

    def test_a_fault_scheduled_after_lanes_started_still_fires(self, monkeypatch):
        # The first sweep starts the lane children's server fault-free, so
        # nothing it holds can carry the schedule set afterwards.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        jobs = readiness_jobs(make_bench())
        assert all(outcome.ok for outcome in LocalPoolExecutor(workers=2).execute(jobs))
        set_chaos(monkeypatch, FaultRule(mode="crash", match={"kernel": "gcc"}, attempts=(1,)))
        stats = OutcomeStats()
        outcomes = LocalPoolExecutor(workers=2).execute(jobs, stats=stats)
        assert [(outcome.ok, outcome.attempts) for outcome in outcomes] == [(True, 2), (True, 1)]
        assert stats.pool_respawns == 1

    def test_an_installed_lambda_fires_in_a_lane_child(self, monkeypatch):
        # A lambda does not pickle; the lane sends the fault it decided.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        install(lambda job, attempt: "crash" if (job.kernel, attempt) == ("gcc", 1) else None)
        stats = OutcomeStats()
        try:
            outcomes = LocalPoolExecutor(workers=2).execute(
                readiness_jobs(make_bench()), stats=stats
            )
        finally:
            uninstall()
        # In-process the crash would raise instead (an "injected" failure).
        assert [(outcome.ok, outcome.attempts) for outcome in outcomes] == [(True, 2), (True, 1)]
        assert stats.pool_respawns == 1


class TestLanesOnSpawn(TestLanes):
    """The same lane contract with children started by ``spawn``."""

    @pytest.fixture(autouse=True)
    def _spawned_lane_children(self, monkeypatch):
        from repro.experiments import executor

        monkeypatch.setattr(
            executor, "_lane_context", lambda: multiprocessing.get_context("spawn")
        )


_REGISTERING_SCRIPT = """
import json

from repro.api import (
    LocalPoolExecutor, Tracer, Workbench, get_kernel, register_steering, resolve_policy,
)
from repro.core.steering.simple import ModuloSteering


@register_steering("lane_modulo")
def build_lane_modulo(stride: int = 1):
    return ModuloSteering()


if __name__ == "__main__":
    bench = Workbench(instructions=300)
    policy = resolve_policy({"steering": "lane_modulo", "scheduler": "oldest"})
    jobs = [bench.job(get_kernel(k), bench.clustered(2), policy) for k in ("gcc", "mcf")]
    tracer = Tracer()
    laned = LocalPoolExecutor(workers=2).execute(jobs, tracer=tracer)
    serial = LocalPoolExecutor(workers=0).execute(jobs)
    print(json.dumps({
        "laned": [outcome.unwrap().cycles for outcome in laned],
        "serial": [outcome.unwrap().cycles for outcome in serial],
        "child_spans": sum(1 for span in tracer.spans if span.meta.get("worker")),
    }))
"""


def test_a_kind_registered_at_module_level_runs_on_lanes(tmp_path):
    script = tmp_path / "sweep.py"
    script.write_text(_REGISTERING_SCRIPT)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["child_spans"] > 0  # the laned jobs ran in lane children
    assert report["laned"] == report["serial"]


class TestSpecExecutorField:
    def _spec(self, execution=None):
        return ExperimentSpec(
            name="executor-field",
            sweeps=(SweepSpec((MachineSpec(2),), ("l",)),),
            workloads=None,
            execution=execution,
        )

    def test_valid_names_accepted_and_surfaced(self):
        spec = self._spec(execution={"executor": "local"})
        assert spec.to_dict()["execution"]["executor"] == "local"

    def test_unknown_name_rejected_at_load(self):
        with pytest.raises(SpecError, match="executor"):
            self._spec(execution={"executor": "bogus"})

    def test_executor_key_is_hash_neutral(self):
        plain = self._spec()
        tagged = self._spec(execution={"executor": "distributed"})
        assert spec_hash(plain) == spec_hash(tagged)

    def test_run_spec_restores_bench_executor(self):
        sentinel = LocalPoolExecutor()
        bench = make_bench(executor=sentinel)
        spec = ExperimentSpec(
            name="restore",
            sweeps=(SweepSpec((MachineSpec(2),), ("l",)),),
            workloads=[{"kernel": "gcc"}],
            execution={"executor": "local"},
        )
        run_spec(bench, spec)
        assert bench.executor is sentinel
