"""Fault-injection coverage for the resilient execution layer.

The contract under test (ISSUE 5): a sweep under injected faults --
worker crashes, hangs past the job timeout, garbled results, corrupted
cache bytes, an interrupt halfway through -- converges to results
**bit-identical** to a fault-free run, renders explicit FAILED/TIMEOUT
cells for jobs that exhaust their retry budget, and resumes an
interrupted sweep re-executing only its unfinished jobs.
"""

import gzip
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import results_identical
from repro.core.simulator import SimulationDeadlock, SimulationDiverged
from repro.experiments import parallel
from repro.experiments.cache import RunCache, job_key
from repro.experiments.fig14 import spec_figure14
from repro.experiments.harness import Workbench
from repro.experiments.manifest import SweepManifest, default_manifest_dir
from repro.experiments.outcomes import (
    ExecutionPolicy,
    JobOutcome,
    OutcomeStats,
    RunFailure,
    RunFailureError,
    classify_failure,
)
from repro.experiments.parallel import execute_outcomes, run_job_outcome
from repro.experiments.sweep import run_spec
from repro.specs import ExperimentSpec, spec_hash
from repro.testing.chaos import (
    ChaosConfig,
    ChaosError,
    FaultRule,
    corrupt_cache_entry,
    install,
    uninstall,
)
from repro.workloads.suite import get_kernel

INSTRUCTIONS = 400


@pytest.fixture(autouse=True)
def _no_leftover_chaos(monkeypatch):
    """Every test starts and ends fault-free."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    uninstall()
    yield
    uninstall()


def make_bench(cache=None, workers=0, **kwargs):
    kwargs.setdefault("instructions", INSTRUCTIONS)
    kwargs.setdefault("benchmarks", [get_kernel("gcc"), get_kernel("mcf")])
    return Workbench(cache=cache, workers=workers, **kwargs)


def fault_on_attempts(action, attempts, kernel=None):
    """A hook firing ``action`` on the given attempt numbers (all jobs)."""

    def hook(job, attempt):
        if kernel is not None and job.kernel != kernel:
            return None
        return action if attempt in attempts else None

    return hook


class TestChaosConfig:
    def test_actions_are_deterministic(self):
        bench = make_bench()
        job = bench.job(get_kernel("gcc"), bench.clustered(2), "l")
        config = ChaosConfig(crash_rate=0.5, seed=7)
        assert config.action_for(job, 1) == config.action_for(job, 1)

    def test_rate_crashes_fire_on_first_attempt_only(self):
        bench = make_bench()
        config = ChaosConfig(crash_rate=1.0)
        job = bench.job(get_kernel("gcc"), bench.clustered(2), "l")
        assert config.action_for(job, 1) == "crash"
        assert config.action_for(job, 2) is None

    def test_rule_matching_and_attempt_filter(self):
        bench = make_bench()
        rule = FaultRule(mode="error", match={"kernel": "gcc"}, attempts=(2,))
        gcc = bench.job(get_kernel("gcc"), bench.clustered(2), "l")
        mcf = bench.job(get_kernel("mcf"), bench.clustered(2), "l")
        assert not rule.matches(gcc, 1)
        assert rule.matches(gcc, 2)
        assert not rule.matches(mcf, 2)

    def test_json_round_trip(self):
        config = ChaosConfig(
            rules=(FaultRule(mode="hang", match={"kernel": "gcc"}, rate=0.5),),
            crash_rate=0.1,
            seed=3,
            hang_seconds=2.0,
        )
        import json

        rebuilt = ChaosConfig.from_dict(json.loads(config.env_value()))
        assert rebuilt == config

    def test_bad_mode_and_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(mode="meltdown")
        with pytest.raises(ValueError):
            ChaosConfig(crash_rate=1.5)


class TestClassification:
    def test_diverged_is_final(self):
        failure = classify_failure(SimulationDiverged(10, 3, 20), 1, 0.1)
        assert failure.kind == "diverged"
        assert not failure.retryable
        assert failure.label() == "FAILED(diverged)"

    def test_deadlock_alias_still_classifies(self):
        # Historical alias: old call sites raising SimulationDeadlock are
        # the same type and classify identically.
        assert SimulationDeadlock is SimulationDiverged

    def test_chaos_error_is_injected_and_timeout_labelled(self):
        injected = classify_failure(ChaosError("boom"), 2, 0.5)
        assert injected.kind == "injected"
        assert injected.retryable
        timeout = classify_failure(TimeoutError("too slow"), 1, 9.0)
        assert timeout.label() == "TIMEOUT"

    def test_outcome_needs_exactly_one_of_result_failure(self):
        bench = make_bench()
        job = bench.job(get_kernel("gcc"), bench.clustered(2), "l")
        with pytest.raises(ValueError):
            JobOutcome(job=job)
        failure = RunFailure("error", "X", "y", 1, 0.0)
        with pytest.raises(RunFailureError):
            JobOutcome(job=job, failure=failure).unwrap()


class TestSerialRetries:
    def test_transient_error_retries_to_identical_result(self):
        bench = make_bench()
        spec = get_kernel("gcc")
        clean = bench.run(spec, bench.clustered(2), "l")

        install(fault_on_attempts("error", {1}))
        bench2 = make_bench()
        stats = OutcomeStats()
        job = bench2.job(spec, bench2.clustered(2), "l")
        outcome = run_job_outcome(job, policy=ExecutionPolicy(), stats=stats)
        assert outcome.ok and outcome.attempts == 2
        assert stats.retries == 1
        assert results_identical(outcome.result, clean)

    def test_env_hang_honours_hang_seconds(self, monkeypatch):
        # A hang scheduled through REPRO_CHAOS sleeps the config's
        # hang_seconds, not the 30 s default.
        config = ChaosConfig(
            rules=(FaultRule(mode="hang", attempts=(1,)),), hang_seconds=0.2
        )
        monkeypatch.setenv("REPRO_CHAOS", config.env_value())
        bench = make_bench()
        job = bench.job(get_kernel("gcc"), bench.clustered(2), "l")
        start = time.monotonic()
        assert bench.prefetch([job]) == 1
        assert time.monotonic() - start < 10.0

    def test_garbage_result_rejected_and_retried(self):
        bench = make_bench()
        spec = get_kernel("gcc")
        clean = bench.run(spec, bench.clustered(2), "l")

        install(fault_on_attempts("garbage", {1}))
        bench2 = make_bench()
        outcome = bench2.outcome(spec, bench2.clustered(2), "l")
        assert outcome.ok and outcome.attempts == 2
        assert results_identical(outcome.result, clean)
        assert outcome.result.cycles > 0

    def test_exhausted_retries_yield_typed_failure(self):
        install(fault_on_attempts("error", {1, 2, 3, 4}))
        bench = make_bench(execution=ExecutionPolicy(max_retries=2))
        outcome = bench.outcome(get_kernel("gcc"), bench.clustered(2), "l")
        assert not outcome.ok
        assert outcome.failure.kind == "injected"
        assert outcome.failure.attempts == 3  # 1 + max_retries
        assert outcome.failure.error_type == "ChaosError"
        assert len(outcome.failure.traceback_digest) == 16

    def test_diverged_not_retried(self, monkeypatch):
        bench = make_bench()
        spec = get_kernel("gcc")
        job = bench.job(spec, bench.clustered(2), "l")

        def explode(job, prepared=None, tracer=None):
            raise SimulationDiverged(100, 5, 400)

        monkeypatch.setattr(parallel, "execute_job", explode)
        stats = OutcomeStats()
        outcome = run_job_outcome(job, policy=ExecutionPolicy(), stats=stats)
        assert not outcome.ok
        assert outcome.failure.kind == "diverged"
        assert outcome.attempts == 1
        assert stats.retries == 0

    def test_failed_job_not_rerun_by_workbench(self):
        install(fault_on_attempts("error", {1, 2, 3, 4}))
        bench = make_bench(execution=ExecutionPolicy(max_retries=1))
        spec = get_kernel("gcc")
        first = bench.outcome(spec, bench.clustered(2), "l")
        executed = bench.exec_stats.executed
        retries = bench.exec_stats.retries
        second = bench.outcome(spec, bench.clustered(2), "l")
        assert second is first
        assert bench.exec_stats.executed == executed
        assert bench.exec_stats.retries == retries
        with pytest.raises(RunFailureError):
            bench.run(spec, bench.clustered(2), "l")
        assert [o.failure.kind for o in bench.failed_outcomes()] == ["injected"]

    def test_fail_fast_raises(self):
        install(fault_on_attempts("error", {1, 2}))
        bench = make_bench(
            execution=ExecutionPolicy(max_retries=1, fail_fast=True)
        )
        with pytest.raises(RunFailureError):
            bench.outcome(get_kernel("gcc"), bench.clustered(2), "l")


class TestPoolChaos:
    """Faults inside real worker processes, via the REPRO_CHAOS env var."""

    def test_worker_crash_respawns_pool_and_matches_fault_free(
        self, monkeypatch
    ):
        clean_bench = make_bench()
        spec = get_kernel("gcc")
        jobs = [
            clean_bench.job(spec, clean_bench.clustered(n), "l") for n in (2, 4)
        ]
        clean = [clean_bench.run(spec, clean_bench.clustered(n), "l") for n in (2, 4)]

        config = ChaosConfig(
            rules=(FaultRule(mode="crash", match={"kernel": "gcc"}, attempts=(1,)),)
        )
        monkeypatch.setenv("REPRO_CHAOS", config.env_value())
        bench = make_bench(workers=2)
        stats = bench.exec_stats
        assert bench.prefetch(jobs) == 2
        assert stats.pool_respawns >= 1
        for job, expected in zip(jobs, clean):
            assert results_identical(bench.result_for(job), expected)

    def test_job_timeout_kills_hung_worker_and_retries(self, monkeypatch):
        clean_bench = make_bench()
        spec = get_kernel("gcc")
        clean = [clean_bench.run(spec, clean_bench.clustered(n), "l") for n in (2, 4)]

        config = ChaosConfig(
            rules=(FaultRule(mode="hang", attempts=(1,)),), hang_seconds=20.0
        )
        monkeypatch.setenv("REPRO_CHAOS", config.env_value())
        bench = make_bench(
            workers=2,
            execution=ExecutionPolicy(max_retries=2, job_timeout=1.0),
        )
        jobs = [bench.job(spec, bench.clustered(n), "l") for n in (2, 4)]
        assert bench.prefetch(jobs) == 2
        assert bench.exec_stats.timeouts >= 1
        for job, expected in zip(jobs, clean):
            assert results_identical(bench.result_for(job), expected)

    def test_job_timeout_binds_a_lone_job(self, monkeypatch):
        # Under a job timeout even a single job runs in a killable pool
        # worker; in-process, nothing could interrupt the hang.
        clean_bench = make_bench()
        spec = get_kernel("gcc")
        clean = clean_bench.run(spec, clean_bench.clustered(2), "l")

        config = ChaosConfig(
            rules=(FaultRule(mode="hang", attempts=(1,)),), hang_seconds=20.0
        )
        monkeypatch.setenv("REPRO_CHAOS", config.env_value())
        bench = make_bench(
            workers=2,
            execution=ExecutionPolicy(max_retries=2, job_timeout=1.0),
        )
        job = bench.job(spec, bench.clustered(2), "l")
        settled: list[JobOutcome] = []
        assert bench.prefetch([job], on_outcome=settled.append) == 1
        assert bench.exec_stats.timeouts == 1
        assert [(outcome.ok, outcome.attempts) for outcome in settled] == [(True, 2)]
        assert results_identical(bench.result_for(job), clean)

    def test_timeout_without_retries_reports_timeout_cell(self, monkeypatch):
        config = ChaosConfig(rules=(FaultRule(mode="hang"),), hang_seconds=20.0)
        monkeypatch.setenv("REPRO_CHAOS", config.env_value())
        bench = make_bench(
            workers=2,
            execution=ExecutionPolicy(max_retries=0, job_timeout=0.8),
        )
        jobs = [bench.job(get_kernel("gcc"), bench.clustered(n), "l") for n in (2, 4)]
        assert bench.prefetch(jobs) == 0
        for job in jobs:
            outcome = bench.failure_for(job)
            assert outcome is not None
            assert outcome.failure.kind == "timeout"
            assert outcome.failure.label() == "TIMEOUT"

    def test_figure14_sweep_under_crash_rate_is_bit_identical(
        self, monkeypatch, tmp_path
    ):
        """Scaled-down acceptance run: Figure 14 under a 30% crash rate
        plus one corrupted cache entry completes with output identical to
        the fault-free sweep."""
        from repro.experiments.fig14 import run_figure14

        kernels = [get_kernel("gcc"), get_kernel("mcf")]
        clean_bench = Workbench(instructions=INSTRUCTIONS, benchmarks=kernels)
        clean = str(run_figure14(clean_bench))

        cache = RunCache(tmp_path / "cache")
        bench = Workbench(
            instructions=INSTRUCTIONS,
            benchmarks=kernels,
            workers=2,
            cache=cache,
        )
        # Pre-corrupt one entry: store a real result, then damage it.
        spec = get_kernel("gcc")
        victim = bench.job(spec, bench.clustered(2), "focused")
        cache.store(victim, clean_bench.run(spec, clean_bench.clustered(2), "focused"))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            corrupt_cache_entry(cache, victim, mode="truncate")
            monkeypatch.setenv(
                "REPRO_CHAOS", ChaosConfig(crash_rate=0.3, seed=11).env_value()
            )
            chaotic = str(run_figure14(bench))
        assert chaotic == clean
        assert cache.quarantined == 1


class TestCacheSelfHealing:
    @pytest.mark.parametrize("mode", ["garble", "truncate", "deflate"])
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path, mode):
        spec = get_kernel("gcc")
        cache = RunCache(tmp_path)
        first = Workbench(instructions=INSTRUCTIONS, benchmarks=[spec], cache=cache)
        original = first.run(spec, first.clustered(2), "l")
        victim = first.job(spec, first.clustered(2), "l")
        path = corrupt_cache_entry(cache, victim, mode=mode)

        fresh_cache = RunCache(tmp_path)
        fresh = Workbench(
            instructions=INSTRUCTIONS, benchmarks=[spec], cache=fresh_cache
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            recomputed = fresh.run(spec, fresh.clustered(2), "l")
        assert results_identical(recomputed, original)
        assert fresh.simulations_run == 1
        assert fresh_cache.quarantined == 1
        assert fresh_cache.stats()["quarantined"] == 1
        assert path.with_name(path.name + ".corrupt").exists()
        # The recomputation healed the cache: next load is a clean hit.
        healed = RunCache(tmp_path)
        assert healed.load(victim) is not None
        assert healed.quarantined == 0

    @pytest.mark.parametrize("damage", ["short column", "waiter past the end"])
    def test_damaged_columns_quarantined_never_loaded_short(self, tmp_path, damage):
        """An entry that is valid gzip JSON but whose record columns are
        inconsistent is a miss and is quarantined, never a shorter hit."""
        spec = get_kernel("gcc")
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=INSTRUCTIONS, benchmarks=[spec], cache=cache)
        bench.run(spec, bench.clustered(2), "l")
        job = bench.job(spec, bench.clustered(2), "l")
        path = cache.path_for(job_key(job))
        payload = json.loads(gzip.decompress(path.read_bytes()))
        columns = payload["result"]["records"]
        if damage == "short column":
            columns["commit_time"].pop()
        else:
            columns["waiters"][0].append(max(columns["index"]) + 1)
        path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))

        fresh = RunCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert fresh.load(job) is None
        assert fresh.stats() == {"hits": 0, "misses": 1, "stores": 0, "quarantined": 1}
        assert path.with_name(path.name + ".corrupt").exists()

    def test_quarantine_warns_only_once_per_cache(self, tmp_path):
        import warnings as warnings_module

        spec = get_kernel("gcc")
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=INSTRUCTIONS, benchmarks=[spec], cache=cache)
        jobs = [bench.job(spec, bench.clustered(n), "dependence") for n in (2, 4)]
        for job in jobs:
            bench.run(spec, job.config, "dependence")
            corrupt_cache_entry(cache, job, mode="truncate")
        fresh = RunCache(tmp_path)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            for job in jobs:
                assert fresh.load(job) is None
        assert fresh.quarantined == 2
        assert sum("quarantined" in str(w.message) for w in caught) == 1

    def test_store_leaves_no_tmp_files(self, tmp_path):
        spec = get_kernel("gcc")
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=INSTRUCTIONS, benchmarks=[spec], cache=cache)
        bench.run(spec, bench.clustered(2), "l")
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []


def _mini_spec():
    return ExperimentSpec.from_dict(
        {
            "name": "chaos_mini",
            "workloads": [{"kernel": "gcc"}, {"kernel": "mcf"}],
            "sweeps": [
                {"machines": [{"clusters": 2}, {"clusters": 4}], "policies": ["l"]}
            ],
        }
    )


class TestSweepTablesAndManifest:
    def test_failed_jobs_render_cells_not_exceptions(self, tmp_path):
        spec = _mini_spec()
        install(
            lambda job, attempt: "error" if job.kernel == "mcf" else None
        )
        bench = make_bench(execution=ExecutionPolicy(max_retries=1))
        figure = run_spec(bench, spec)
        text = str(figure)
        assert "FAILED(injected)" in text
        assert "gcc" in text
        assert any("2 run(s) failed" in note for note in figure.notes)
        # gcc rows still carry numbers.
        gcc_rows = [r for r in figure.rows if r[0] == "gcc"]
        assert all(isinstance(r[3], int) for r in gcc_rows)

    def test_spec_execution_overrides_and_restores_bench_policy(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "chaos_exec",
                "execution": {"max_retries": 0},
                "workloads": [{"kernel": "gcc"}],
                "sweeps": [{"machines": [{"clusters": 2}], "policies": ["l"]}],
            }
        )
        install(fault_on_attempts("error", {1}))
        bench = make_bench(execution=ExecutionPolicy(max_retries=3))
        figure = run_spec(bench, spec)
        # max_retries=0 from the spec: the single fault is fatal ...
        assert "FAILED(injected)" in str(figure)
        # ... and the workbench's own policy is restored afterwards.
        assert bench.execution.max_retries == 3

    def test_figure_spec_does_not_rerun_a_failed_job(self):
        # run_spec prefetches the spec's jobs, then the figure runner
        # prefetches its plan again; the second pass must read the
        # failure ledger instead of spending the retry budget twice.
        attempts = []

        def always_fails(job, attempt):
            if job.config.num_clusters == 4 and job.policy == "s":
                attempts.append(attempt)
                return "error"
            return None

        install(always_fails)
        bench = make_bench(
            benchmarks=[get_kernel("gcc")], execution=ExecutionPolicy(max_retries=2)
        )
        figure = run_spec(bench, spec_figure14())
        assert attempts == [1, 2, 3]
        assert bench.exec_stats.failed == 1
        assert "FAILED(injected)" in str(figure)

    def test_interrupted_sweep_resumes_unfinished_jobs_only(self, tmp_path):
        spec = _mini_spec()
        cache = RunCache(tmp_path / "cache")
        manifest_dir = default_manifest_dir(cache.root)
        bench = make_bench(cache=cache)
        jobs = spec.jobs(bench)
        assert len(jobs) == 4

        # Fault-free reference table.
        reference = run_spec(make_bench(), spec)

        # Interrupt the sweep after two settled jobs.
        interrupted = set()

        def interrupt_hook(job, attempt):
            if len(interrupted) >= 2:
                raise KeyboardInterrupt
            interrupted.add(job_key(job))
            return None

        install(interrupt_hook)
        manifest = SweepManifest.open(manifest_dir, spec_hash(spec), spec.name)
        with pytest.raises(KeyboardInterrupt):
            run_spec(bench, spec, manifest=manifest)
        uninstall()
        assert bench.simulations_run == 2
        assert cache.stores == 2  # flushed before the interrupt propagated

        # Resume with a fresh workbench: only the two unfinished jobs run.
        resumed_manifest = SweepManifest.open(
            manifest_dir, spec_hash(spec), spec.name
        )
        assert len(resumed_manifest.resumed) == 2
        bench2 = make_bench(cache=RunCache(tmp_path / "cache"))
        figure = run_spec(bench2, spec, manifest=resumed_manifest)
        assert bench2.simulations_run == 2
        assert figure.rows == reference.rows
        assert any("resumed: 2 of 4" in note for note in figure.notes)
        assert resumed_manifest.summary() == {
            "jobs": 4,
            "completed": 4,
            "failed": 0,
            "resumed": 2,
        }

    def test_manifest_records_failures_and_corruption_is_quarantined(
        self, tmp_path
    ):
        spec = _mini_spec()
        cache = RunCache(tmp_path / "cache")
        manifest_dir = default_manifest_dir(cache.root)
        install(lambda job, attempt: "error" if job.kernel == "mcf" else None)
        bench = make_bench(cache=cache, execution=ExecutionPolicy(max_retries=0))
        manifest = SweepManifest.open(manifest_dir, spec_hash(spec), spec.name)
        run_spec(bench, spec, manifest=manifest)
        assert manifest.summary()["failed"] == 2
        uninstall()

        # A corrupted manifest is quarantined, not fatal; results still
        # resume from the run cache.
        manifest.path.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="manifest"):
            reopened = SweepManifest.open(manifest_dir, spec_hash(spec), spec.name)
        assert reopened.entries == {}
        bench2 = make_bench(cache=RunCache(tmp_path / "cache"))
        figure = run_spec(bench2, spec, manifest=reopened)
        assert bench2.simulations_run == 2  # only the previously-failed jobs
        assert "FAILED" not in str(figure)


class TestFaultScheduleIndependence:
    """Property: outcomes do not depend on the fault schedule, as long as
    every faulted job has a clean attempt left inside the retry budget."""

    BASELINE = None

    @classmethod
    def baseline(cls):
        if cls.BASELINE is None:
            bench = Workbench(
                instructions=300, benchmarks=[get_kernel("gcc"), get_kernel("mcf")]
            )
            jobs = [
                bench.job(get_kernel(k), bench.clustered(n), "l")
                for k in ("gcc", "mcf")
                for n in (2, 4)
            ]
            outcomes = execute_outcomes(jobs, workers=0)
            cls.BASELINE = (jobs, outcomes)
        return cls.BASELINE

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # job index
                st.integers(min_value=1, max_value=3),  # attempt
                st.sampled_from(["error", "garbage"]),
            ),
            max_size=8,
        )
    )
    def test_outcomes_independent_of_fault_schedule(self, schedule):
        jobs, baseline = self.baseline()
        faults = {}
        for index, attempt, action in schedule:
            faults[(jobs[index].kernel, jobs[index].config.name, attempt)] = action
        install(
            lambda job, attempt: faults.get(
                (job.kernel, job.config.name, attempt)
            )
        )
        try:
            outcomes = execute_outcomes(
                jobs, workers=0, policy=ExecutionPolicy(max_retries=3)
            )
        finally:
            uninstall()
        for clean, chaotic in zip(baseline, outcomes):
            assert chaotic.ok
            assert results_identical(clean.result, chaotic.result)
