"""Determinism tests for parallel execution and the persistent run cache.

The correctness invariant of the whole parallel layer: fanning runs out
over worker processes, or loading them back from the on-disk cache, must
produce bit-identical :class:`SimulationResult`s to serial in-process
execution -- for every policy, including the warm-up-trained predictor
paths.
"""

import pytest

from repro.core.serialize import result_to_dict, results_identical
from repro.experiments.batch import clear_trace_memo
from repro.experiments.cache import RunCache, job_key
from repro.experiments.harness import POLICY_NAMES, Workbench
from repro.experiments.parallel import dedupe_jobs, execute_outcomes, simulate
from repro.experiments.runner import main
from repro.workloads.suite import get_kernel

INSTRUCTIONS = 800
KERNELS = ("gcc", "mcf")


@pytest.fixture(scope="module")
def serial_results():
    """Reference results: serial, in-process, per-policy on two kernels."""
    bench = Workbench(
        instructions=INSTRUCTIONS,
        benchmarks=[get_kernel(k) for k in KERNELS],
    )
    results = {}
    for kernel in KERNELS:
        spec = get_kernel(kernel)
        for policy in POLICY_NAMES:
            results[kernel, policy] = bench.run(spec, bench.clustered(2), policy)
    return results


class TestParallelMatchesSerial:
    def test_worker_pool_results_bit_identical(self, serial_results):
        bench = Workbench(
            instructions=INSTRUCTIONS,
            benchmarks=[get_kernel(k) for k in KERNELS],
            workers=2,
        )
        jobs = [
            bench.job(get_kernel(kernel), bench.clustered(2), policy)
            for kernel in KERNELS
            for policy in POLICY_NAMES
        ]
        executed = bench.prefetch(jobs)
        assert executed == len(jobs)
        for kernel in KERNELS:
            spec = get_kernel(kernel)
            for policy in POLICY_NAMES:
                parallel = bench.run(spec, bench.clustered(2), policy)
                assert serial_results[kernel, policy] == parallel, (
                    f"parallel result diverged for {kernel}/{policy}"
                )
        # All runs came from the prefetch; none re-executed serially.
        assert bench.simulations_run == len(jobs)

    def test_execute_outcomes_preserves_job_order(self):
        bench = Workbench(instructions=400, benchmarks=[get_kernel("gcc")])
        jobs = [
            bench.job(get_kernel("gcc"), bench.clustered(n), "dependence")
            for n in (2, 4, 8)
        ]
        outcomes = execute_outcomes(jobs, workers=2)
        assert [o.job for o in outcomes] == jobs
        results = [o.unwrap() for o in outcomes]
        assert [r.config.num_clusters for r in results] == [2, 4, 8]

    def test_worker_regenerated_trace_matches_prepared(self):
        # A job on a trace the workbench already prepared (a warm memo
        # entry) matches one that regenerates it, as a fresh worker does.
        bench = Workbench(instructions=600, benchmarks=[get_kernel("vpr")])
        job = bench.job(get_kernel("vpr"), bench.clustered(4), "l")
        bench.prepare(get_kernel("vpr"))
        with_prepared = simulate(job)
        clear_trace_memo()
        regenerated = simulate(job)
        assert results_identical(with_prepared, regenerated)


class TestRunCacheRoundTrip:
    def test_round_trip_reproduces_results_and_cpi(self, tmp_path, serial_results):
        cache = RunCache(tmp_path)
        bench = Workbench(
            instructions=INSTRUCTIONS, benchmarks=[get_kernel("gcc")]
        )
        for (kernel, policy), result in serial_results.items():
            job = bench.job(get_kernel(kernel), bench.clustered(2), policy)
            cache.store(job, result)
            loaded = cache.load(job)
            assert loaded is not None
            assert loaded == result
            assert loaded.cpi == result.cpi
            assert loaded.instructions == result.instructions
        assert cache.stores == len(serial_results)
        assert cache.hits == len(serial_results)

    def test_ilp_profile_survives_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=600, benchmarks=[get_kernel("gcc")])
        spec = get_kernel("gcc")
        result = bench.run(spec, bench.clustered(8), "p", collect_ilp=True)
        job = bench.job(spec, bench.clustered(8), "p", collect_ilp=True)
        cache.store(job, result)
        loaded = cache.load(job)
        assert loaded.ilp_profile is not None
        assert loaded.ilp_profile.series() == result.ilp_profile.series()

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=500, benchmarks=[get_kernel("gcc")])
        job = bench.job(get_kernel("gcc"), bench.clustered(2), "dependence")
        assert cache.load(job) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=500, benchmarks=[get_kernel("gcc")])
        job = bench.job(get_kernel("gcc"), bench.clustered(2), "dependence")
        path = cache.path_for(job_key(job))
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not gzip at all")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.load(job) is None
        assert cache.misses == 1

    def test_two_threads_storing_one_key_do_not_collide(self, tmp_path, monkeypatch):
        # Both threads are inside json.dump with their temp files open at
        # once; sharing one temp name, the second os.replace would find
        # the file already renamed away.
        import json
        import threading

        cache = RunCache(tmp_path)
        bench = Workbench(instructions=500, benchmarks=[get_kernel("gcc")])
        spec = get_kernel("gcc")
        result = bench.run(spec, bench.clustered(2), "dependence")
        job = bench.job(spec, bench.clustered(2), "dependence")
        barrier = threading.Barrier(2, timeout=30)
        real_dump = json.dump

        def dump(obj, handle, **kwargs):
            barrier.wait()
            real_dump(obj, handle, **kwargs)

        monkeypatch.setattr(json, "dump", dump)
        errors: list[BaseException] = []

        def store() -> None:
            try:
                cache.store(job, result)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monkeypatch.undo()
        assert errors == []
        assert cache.load(job) == result
        assert not list(tmp_path.rglob("*.tmp-*"))


class TestPersistentCacheAcrossWorkbenches:
    def test_second_workbench_runs_zero_simulations(self, tmp_path):
        spec = get_kernel("gcc")
        first = Workbench(
            instructions=600, benchmarks=[spec], cache=RunCache(tmp_path)
        )
        a = first.run(spec, first.clustered(4), "l")
        assert first.simulations_run == 1

        cache = RunCache(tmp_path)
        second = Workbench(instructions=600, benchmarks=[spec], cache=cache)
        b = second.run(spec, second.clustered(4), "l")
        assert second.simulations_run == 0
        assert cache.hits == 1
        assert a == b

    def test_prefetch_hits_disk_cache(self, tmp_path):
        spec = get_kernel("gcc")
        cache = RunCache(tmp_path)
        first = Workbench(instructions=600, benchmarks=[spec], cache=cache)
        jobs = [first.job(spec, first.clustered(2), "dependence")]
        assert first.prefetch(jobs) == 1
        second = Workbench(
            instructions=600, benchmarks=[spec], cache=RunCache(tmp_path)
        )
        assert second.prefetch(jobs) == 0

    def test_dedupe_preserves_order(self):
        bench = Workbench(instructions=500, benchmarks=[get_kernel("gcc")])
        j1 = bench.job(get_kernel("gcc"), bench.clustered(2), "dependence")
        j2 = bench.job(get_kernel("gcc"), bench.clustered(4), "dependence")
        assert dedupe_jobs([j1, j2, j1, j2, j1]) == [j1, j2]


class TestWarmKeyRegression:
    """``warm`` must be part of every cache key (harness.py key-omission bug)."""

    def test_memory_cache_distinguishes_warm_from_cold(self):
        bench = Workbench(instructions=600, benchmarks=[get_kernel("gcc")])
        spec = get_kernel("gcc")
        warm = bench.run(spec, bench.clustered(4), "l", warm=True)
        cold = bench.run(spec, bench.clustered(4), "l", warm=False)
        assert warm is not cold
        assert bench.simulations_run == 2
        # Warm-up training changes the predictors, hence the timing.
        assert warm != cold

    def test_disk_key_includes_warm(self):
        bench = Workbench(instructions=600, benchmarks=[get_kernel("gcc")])
        spec = get_kernel("gcc")
        warm_job = bench.job(spec, bench.clustered(4), "l", warm=True)
        cold_job = bench.job(spec, bench.clustered(4), "l", warm=False)
        assert job_key(warm_job) != job_key(cold_job)

    def test_cold_run_not_satisfied_by_cached_warm_run(self, tmp_path):
        spec = get_kernel("gcc")
        cache = RunCache(tmp_path)
        bench = Workbench(instructions=600, benchmarks=[spec], cache=cache)
        bench.run(spec, bench.clustered(4), "l", warm=True)
        fresh = Workbench(
            instructions=600, benchmarks=[spec], cache=RunCache(tmp_path)
        )
        fresh.run(spec, fresh.clustered(4), "l", warm=False)
        assert fresh.simulations_run == 1


class TestRunnerCli:
    def test_parallel_cached_invocations_identical_and_warm(self, capsys, tmp_path):
        args = [
            "figure14",
            "--instructions",
            "800",
            "--benchmarks",
            "gcc",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "simulated=11" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "simulated=0" in warm
        assert "cache hits=11" in warm

        def table(text):
            return [
                line for line in text.splitlines() if not line.startswith("[")
            ]

        assert table(cold) == table(warm)

    def test_no_cache_flag_disables_reporting(self, capsys, tmp_path):
        assert (
            main(
                [
                    "figure8",
                    "--instructions",
                    "600",
                    "--benchmarks",
                    "gcc",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache hits" not in out
        assert "simulated=1" in out


class TestSerializationOfResults:
    def test_to_dict_is_json_types_only(self, serial_results):
        import json

        payload = result_to_dict(serial_results["gcc", "p"])
        json.dumps(payload)  # raises on non-JSON types
