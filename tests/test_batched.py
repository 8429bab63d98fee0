"""The batched backend and the per-process trace memo: isolation and wiring.

The production promise (see ``repro.experiments.batch``) is that a
job's result is a pure function of the job -- independent of how a
sweep is ordered, of which jobs ran before it in the same process, and
of whether its trace's memo entry was cold or warm.  These tests attack
that promise directly:

* hypothesis drives arbitrary permutations of a grid with the memo
  cleared at arbitrary cut points, and demands results bit-identical to
  running each job alone on a cold memo (and identical cache keys, so
  the run cache can never observe the memo either);
* shared-state isolation: repeating a grid, or running a member alone
  afterwards, on a warm memo must not perturb anything -- the shared
  precompute, canonical warm suite and frozen-priority cache are
  read-only to measurement -- and event and batched jobs interleave
  freely on one entry;
* the memo does its job: one trace generation per trace for a serial
  sweep, a timed-out-policy sweep and a mixed-engine prefetch, bounded
  size, one generation across threads;
* the wiring seams: promotion in :meth:`Workbench.job` / spec-built
  plans, rejection of unsupported jobs, the chaos switch that sends
  batched jobs to the pool, and the in-process path with a pool.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import clustered_machine, monolithic_machine
from repro.core.serialize import results_identical
from repro.experiments import batch
from repro.experiments.batch import (
    TRACE_MEMO_SIZE,
    clear_trace_memo,
    execute_batched_job,
    prepared_trace,
)
from repro.experiments.cache import job_key
from repro.experiments.fig14 import spec_figure14
from repro.experiments.harness import Workbench
from repro.experiments.outcomes import ExecutionPolicy
from repro.experiments.parallel import RunJob, chaos_active, execute_job, simulate
from repro.experiments.sweep import run_spec
from repro.workloads.suite import get_kernel

INSTRUCTIONS = 500

# A small but representative grid: both steering families, three
# schedulers, predictor and predictor-less stacks, three cluster counts.
GRID = [
    (1, "l"),
    (2, "dependence"),
    (2, "focused"),
    (4, "l"),
    (4, "s"),
    (8, "p"),
]


def _machine(clusters: int):
    if clusters == 1:
        return monolithic_machine()
    return clustered_machine(clusters, forwarding_latency=2)


def _job(clusters: int, policy, *, warm: bool = True, sim: str = "batched") -> RunJob:
    return RunJob(
        kernel="gcc",
        instructions=INSTRUCTIONS,
        seed=0,
        loc_mode="probabilistic",
        config=_machine(clusters),
        policy=policy,
        warm=warm,
        sim=sim,
    )


def _solo(job: RunJob):
    """``job`` run alone on a cold memo: the baseline every order must hit."""
    clear_trace_memo()
    return simulate(job)


@pytest.fixture
def vm_runs(monkeypatch):
    """Count trace generations (memo misses), starting from a cold memo."""
    calls: list[tuple] = []
    prepare = batch.prepare_workload

    def counted(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(batch, "prepare_workload", counted)
    clear_trace_memo()
    yield calls
    clear_trace_memo()


@pytest.fixture(scope="module")
def grid_jobs():
    return [_job(clusters, policy) for clusters, policy in GRID]


@pytest.fixture(scope="module")
def solo_results(grid_jobs):
    return [_solo(job) for job in grid_jobs]


# ---------------------------------------------------------------------------
# Order and memo-state invariance
# ---------------------------------------------------------------------------


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_partition_and_order_is_bit_identical(data, grid_jobs, solo_results):
    """Any permutation, split by memo clears at any cut points, matches solo runs.

    Each segment between cuts runs on its own cold-started memo, like a
    group in a fresh worker process.  This is the property that makes
    sharing a trace's state safe: a scheduler (serial, pooled,
    distributed, resumed after a crash) may order and partition jobs
    however it likes.
    """
    order = data.draw(st.permutations(range(len(grid_jobs))), label="order")
    cuts = data.draw(
        st.sets(st.integers(min_value=1, max_value=len(grid_jobs) - 1)),
        label="cuts",
    )
    clear_trace_memo()
    for position, i in enumerate(order):
        if position in cuts:
            clear_trace_memo()
        result = simulate(grid_jobs[i])
        assert results_identical(result, solo_results[i]), (
            f"job {grid_jobs[i].config.name}/{grid_jobs[i].policy} diverged "
            f"with cuts {sorted(cuts)} order {order}"
        )


def test_job_keys_ignore_grouping(grid_jobs):
    """Cache keys are a pure function of the job -- grouping can't exist
    in the key domain, so a grouped run and a solo run share entries."""
    keys = [job_key(job) for job in grid_jobs]
    assert len(set(keys)) == len(keys)
    # Reconstructing the same jobs (fresh config objects, same values)
    # lands on the same keys.
    rebuilt = [_job(clusters, policy) for clusters, policy in GRID]
    assert [job_key(job) for job in rebuilt] == keys


def test_repeat_group_is_bit_identical(grid_jobs, solo_results):
    """A second pass over the grid on the now-warm memo reproduces the
    first bit-for-bit: nothing accumulates in the shared state."""
    clear_trace_memo()
    first = [simulate(job) for job in grid_jobs]
    second = [simulate(job) for job in grid_jobs]
    for job, a, b, solo in zip(grid_jobs, first, second, solo_results):
        assert results_identical(a, b), f"{job.config.name}/{job.policy} drifted"
        assert results_identical(a, solo), f"{job.config.name}/{job.policy} != solo"


def test_member_alone_after_group_is_unperturbed(grid_jobs, solo_results):
    """Running the full grid must not leak state into a later lone run
    on the same, still-warm memo entry."""
    clear_trace_memo()
    for job in grid_jobs:
        simulate(job)
    for job, solo in zip(grid_jobs, solo_results):
        assert results_identical(simulate(job), solo)


def test_event_and_batched_jobs_interleave_on_one_trace(grid_jobs, solo_results):
    """Event jobs (including an event-only policy) and batched jobs
    alternating on one memo entry each match their cold solo run."""
    event_jobs = [
        _job(4, "affinity", sim="event"),
        _job(2, "focused", sim="event"),
        _job(8, "readiness", sim="event"),
    ]
    event_solo = [_solo(job) for job in event_jobs]
    clear_trace_memo()
    for k, job in enumerate(grid_jobs):
        assert results_identical(simulate(job), solo_results[k])
        event = event_jobs[k % len(event_jobs)]
        assert results_identical(simulate(event), event_solo[k % len(event_jobs)])


def test_cold_jobs_match_event_backend():
    """``warm=False`` batched runs train live from cold and are
    bit-identical to the event backend's cold runs -- no methodology
    drift exists for cold measurements."""
    for clusters, policy in ((2, "focused"), (4, "l")):
        cold = _job(clusters, policy, warm=False)
        batched = simulate(cold)
        event = simulate(dataclasses.replace(cold, sim="event"))
        assert results_identical(batched, event), f"{clusters}cl {policy} cold"


# ---------------------------------------------------------------------------
# The memo prepares each trace once
# ---------------------------------------------------------------------------


def test_serial_figure14_with_job_timeout_prepares_each_trace_once(vm_runs):
    """Under a job timeout every job runs on its own, through the per-job
    path; the memo still shares each trace across its 11 grid points."""
    bench = Workbench(
        instructions=INSTRUCTIONS,
        benchmarks=[get_kernel("gcc"), get_kernel("mcf")],
        execution=ExecutionPolicy(job_timeout=600),
    )
    run_spec(bench, spec_figure14())
    assert bench.simulations_run == 22
    assert sorted(vm_runs) == [("gcc", INSTRUCTIONS, 0), ("mcf", INSTRUCTIONS, 0)]


def test_prefetch_of_event_and_batched_jobs_prepares_the_trace_once(vm_runs):
    bench = Workbench(instructions=INSTRUCTIONS, benchmarks=[get_kernel("gcc")])
    spec = get_kernel("gcc")
    jobs = [
        bench.job(spec, _machine(4), "affinity"),
        bench.job(spec, _machine(2), "l"),
        bench.job(spec, _machine(2), "readiness"),
        bench.job(spec, _machine(8), "p"),
    ]
    assert {job.sim for job in jobs} == {"event", "batched"}
    assert bench.prefetch(jobs) == len(jobs)
    assert vm_runs == [("gcc", INSTRUCTIONS, 0)]


def test_memo_is_bounded_and_least_recently_used_goes_first(vm_runs):
    traces = [("gcc", 200 + n, 0, "probabilistic") for n in range(TRACE_MEMO_SIZE + 1)]
    for key in traces[:TRACE_MEMO_SIZE]:
        prepared_trace(*key)
    prepared_trace(*traces[0])  # refresh the oldest entry
    prepared_trace(*traces[TRACE_MEMO_SIZE])  # evicts traces[1]
    assert len(vm_runs) == TRACE_MEMO_SIZE + 1
    prepared_trace(*traces[0])
    assert len(vm_runs) == TRACE_MEMO_SIZE + 1
    prepared_trace(*traces[1])
    assert len(vm_runs) == TRACE_MEMO_SIZE + 2


def test_threads_share_one_memo_entry(vm_runs, grid_jobs, solo_results, monkeypatch):
    """Worker threads in one process (the distributed tests run them so)
    build a trace's state once and still get solo-identical results."""
    warmups: list[tuple] = []
    warm_suite = batch.warm_suite

    def counted_warm_suite(*args):
        warmups.append(args)
        return warm_suite(*args)

    monkeypatch.setattr(batch, "warm_suite", counted_warm_suite)
    results: dict[int, object] = {}

    def run(index: int) -> None:
        results[index] = simulate(grid_jobs[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grid_jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' memo lookups finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(vm_runs) == len(warmups) == 1
    for index, solo in enumerate(solo_results):
        assert results_identical(results[index], solo)


# ---------------------------------------------------------------------------
# Execution and rejection seams
# ---------------------------------------------------------------------------


def test_in_process_batched_prefetch_honors_should_stop():
    # With a pool available, batched jobs still run in-process, and
    # graceful shutdown must interrupt that loop too: should_stop is
    # polled before each job.
    from repro.experiments.outcomes import ExecutionInterrupted

    bench = Workbench(instructions=INSTRUCTIONS, workers=2)
    jobs = [
        bench.job(get_kernel(kernel), _machine(clusters), policy)
        for kernel in ("gcc", "gzip")
        for clusters, policy in ((1, "l"), (2, "l"))
    ]
    with pytest.raises(ExecutionInterrupted):
        bench.prefetch(jobs, should_stop=lambda: True)
    assert bench.simulations_run == 0


def test_execute_batched_job_rejects_unsupported():
    with pytest.raises(ValueError):
        execute_batched_job(_job(2, "readiness"))
    with pytest.raises(ValueError):
        execute_batched_job(dataclasses.replace(_job(2, "l"), metrics=True))


def test_execute_job_rejects_unknown_sim():
    with pytest.raises(ValueError):
        execute_job(dataclasses.replace(_job(2, "l"), sim="warp"))


def test_chaos_active_under_hook_and_env(monkeypatch):
    from repro.testing import chaos

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert not chaos_active()
    monkeypatch.setenv("REPRO_CHAOS", "0.5")
    assert chaos_active()
    monkeypatch.delenv("REPRO_CHAOS")
    chaos.install(chaos.ChaosConfig())
    try:
        assert chaos_active()
    finally:
        chaos.uninstall()
    assert not chaos_active()


# ---------------------------------------------------------------------------
# Workbench promotion wiring
# ---------------------------------------------------------------------------


def test_workbench_promotes_eligible_jobs():
    bench = Workbench(instructions=INSTRUCTIONS, benchmarks=[get_kernel("gcc")])
    spec = get_kernel("gcc")
    assert bench.job(spec, _machine(4), "l").sim == "batched"
    assert bench.job(spec, _machine(4), "readiness").sim == "event"
    assert bench.job(spec, _machine(1), "dependence").sim == "batched"


def test_workbench_reference_sim_never_promoted():
    bench = Workbench(
        instructions=INSTRUCTIONS, benchmarks=[get_kernel("gcc")], sim="reference"
    )
    assert bench.job(get_kernel("gcc"), _machine(4), "l").sim == "reference"


def test_workbench_metrics_never_promoted():
    bench = Workbench(
        instructions=INSTRUCTIONS, benchmarks=[get_kernel("gcc")], metrics=True
    )
    assert bench.job(get_kernel("gcc"), _machine(4), "l").sim == "event"


def test_promoted_key_differs_from_event_key():
    """Promotion changes the cache key: a batched result can never
    satisfy an event lookup (or vice versa)."""
    batched = _job(4, "l", sim="batched")
    event = _job(4, "l", sim="event")
    assert job_key(batched) != job_key(event)
