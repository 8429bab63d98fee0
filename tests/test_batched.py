"""The batched sweep backend's grouping, isolation and wiring contracts.

The production promise (see ``repro.experiments.batch``) is that a
``sim="batched"`` grid point's result is a pure function of its job --
independent of how a sweep is batched, ordered, or interleaved with other
grid points.  These tests attack that promise directly:

* hypothesis drives arbitrary permutations and partitions of a grid and
  demands every grouping produce results bit-identical to running each
  job alone (and identical cache keys, so the run cache can never
  observe the grouping either);
* shared-state isolation: repeating a group, reordering it, or running a
  member alone afterwards must not perturb anything -- the shared
  precompute, canonical warm suite and frozen-priority cache are
  read-only to measurement;
* the wiring seams: promotion in :meth:`Workbench.job` / spec-built
  plans, rejection of unsupported jobs, and the grouping bypass under
  chaos injection.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import clustered_machine, monolithic_machine
from repro.core.serialize import results_identical
from repro.experiments.batch import (
    batch_key,
    execute_batched_job,
    fast_policy,
    grouping_blocked,
    plan_groups,
    run_batched_group,
    supports_job,
)
from repro.experiments.cache import job_key
from repro.experiments.harness import Workbench
from repro.experiments.parallel import RunJob, execute_job, prepare_workload
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


@pytest.fixture(scope="module")
def prepared():
    return prepare_workload("gcc", INSTRUCTIONS, 0)


@pytest.fixture(scope="module")
def grid_jobs():
    return [_job(clusters, policy) for clusters, policy in GRID]


@pytest.fixture(scope="module")
def solo_results(grid_jobs, prepared):
    """Each grid job executed alone: the baseline every grouping must hit."""
    return [execute_batched_job(job, prepared) for job in grid_jobs]


# ---------------------------------------------------------------------------
# Grouping / ordering invariance
# ---------------------------------------------------------------------------


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_partition_and_order_is_bit_identical(
    data, grid_jobs, prepared, solo_results
):
    """Any permutation, split into any contiguous groups, matches solo runs.

    This is the property that makes the batched backend safe to wire into
    an arbitrary sweep: the scheduler (serial, pooled, resumed after a
    crash) may group and order eligible jobs however it likes.
    """
    order = data.draw(st.permutations(range(len(grid_jobs))), label="order")
    cuts = data.draw(
        st.sets(st.integers(min_value=1, max_value=len(grid_jobs) - 1)),
        label="cuts",
    )
    bounds = [0, *sorted(cuts), len(grid_jobs)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = [grid_jobs[i] for i in order[lo:hi]]
        results = run_batched_group(chunk, prepared)
        for i, result in zip(order[lo:hi], results):
            assert results_identical(result, solo_results[i]), (
                f"job {grid_jobs[i].config.name}/{grid_jobs[i].policy} diverged "
                f"under grouping {bounds} order {order}"
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


def test_repeat_group_is_bit_identical(grid_jobs, prepared, solo_results):
    """A second run of the same group (fresh warm suite, fresh frozen
    cache) reproduces the first bit-for-bit: nothing accumulates."""
    first = run_batched_group(grid_jobs, prepared)
    second = run_batched_group(grid_jobs, prepared)
    for job, a, b, solo in zip(grid_jobs, first, second, solo_results):
        assert results_identical(a, b), f"{job.config.name}/{job.policy} drifted"
        assert results_identical(a, solo), f"{job.config.name}/{job.policy} != solo"


def test_member_alone_after_group_is_unperturbed(grid_jobs, prepared, solo_results):
    """Running the full group must not leak state into a later solo run."""
    run_batched_group(grid_jobs, prepared)
    for job, solo in zip(grid_jobs, solo_results):
        again = execute_batched_job(job, prepared)
        assert results_identical(again, solo)


def test_cold_jobs_match_event_backend(prepared):
    """``warm=False`` batched runs train live from cold and are
    bit-identical to the event backend's cold runs -- no methodology
    drift exists for cold measurements."""
    for clusters, policy in ((2, "focused"), (4, "l")):
        cold = _job(clusters, policy, warm=False)
        batched = execute_batched_job(cold, prepared)
        event = execute_job(dataclasses.replace(cold, sim="event"), prepared)
        assert results_identical(batched, event), f"{clusters}cl {policy} cold"


# ---------------------------------------------------------------------------
# Planning and rejection seams
# ---------------------------------------------------------------------------


def test_plan_groups_buckets_by_trace_and_falls_back():
    a = [_job(c, "l") for c in (1, 2, 4)]
    b = [
        dataclasses.replace(_job(2, "s"), kernel="mcf"),
        dataclasses.replace(_job(8, "focused"), kernel="mcf"),
    ]
    readiness = _job(2, "readiness")
    event = _job(2, "l", sim="event")
    groups, rest = plan_groups(a + b + [readiness, event])
    keys = {batch_key(group[0]) for group in groups}
    assert len(groups) == 2 and len(keys) == 2
    # Unsupported policy and unpromoted sim fall back to the per-job path.
    assert readiness in rest and event in rest
    total = sum(len(group) for group in groups)
    assert total == len(a + b)


def test_pooled_group_prefetch_honors_should_stop():
    # Graceful shutdown must interrupt the *pooled* batched path too,
    # not just the serial group loop: should_stop is polled while
    # awaiting group completions.
    from repro.experiments.outcomes import ExecutionInterrupted

    bench = Workbench(instructions=INSTRUCTIONS, workers=2)
    jobs = [
        bench.job(get_kernel(kernel), _machine(clusters), policy)
        for kernel in ("gcc", "gzip")
        for clusters, policy in ((1, "l"), (2, "l"))
    ]
    with pytest.raises(ExecutionInterrupted):
        bench.prefetch(jobs, should_stop=lambda: True)


def test_plan_groups_min_size_sends_singletons_to_rest():
    lone = _job(4, "p")
    groups, rest = plan_groups([lone])
    assert groups == [] and rest == [lone]


def test_execute_batched_job_rejects_unsupported(prepared):
    with pytest.raises(ValueError):
        execute_batched_job(_job(2, "readiness"), prepared)
    with pytest.raises(ValueError):
        execute_batched_job(
            dataclasses.replace(_job(2, "l"), metrics=True), prepared
        )


def test_run_batched_group_rejects_mixed_traces(prepared):
    other = dataclasses.replace(_job(2, "l"), kernel="mcf")
    with pytest.raises(ValueError):
        run_batched_group([_job(2, "l"), other], prepared)


def test_execute_job_rejects_unknown_sim(prepared):
    with pytest.raises(ValueError):
        execute_job(dataclasses.replace(_job(2, "l"), sim="warp"), prepared)


def test_supports_job_gates_metrics_and_policy():
    assert supports_job(_job(2, "l"))
    assert not supports_job(_job(2, "readiness"))
    assert not supports_job(dataclasses.replace(_job(2, "l"), metrics=True))
    assert fast_policy("readiness") is None


def test_grouping_blocked_under_chaos(monkeypatch):
    assert grouping_blocked() is None
    monkeypatch.setenv("REPRO_CHAOS", "0.5")
    assert grouping_blocked() is not None


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
