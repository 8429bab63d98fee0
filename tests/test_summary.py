"""Run summaries: what every figure reads, and how it travels.

* :func:`~repro.core.serialize.results_identical` compares in-process
  records slot by slot; each single mutation below must make it fail, so
  it is no weaker than the canonical-JSON compare it replaced;
* :func:`~repro.core.serialize.result_from_dict` inverts
  :func:`~repro.core.serialize.result_to_dict` exactly, for summaries of
  every engine;
* every registered experiment renders the same figure whether its
  summaries were computed in-process, stored to a cold cache, loaded back
  by a second workbench, or returned by lanes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import clustered_machine, monolithic_machine
from repro.core.instruction import DispatchReason
from repro.core.serialize import result_from_dict, result_to_dict, results_identical
from repro.experiments import EXPERIMENTS
from repro.experiments.cache import RunCache
from repro.experiments.harness import Workbench
from repro.experiments.parallel import RunJob, execute_job, simulate
from repro.workloads.suite import get_kernel

# ---------------------------------------------------------------------------
# results_identical sees every field
# ---------------------------------------------------------------------------

_JOB = RunJob(
    kernel="gcc",
    instructions=400,
    seed=0,
    loc_mode="probabilistic",
    config=clustered_machine(4),
    policy="dependence",
)


def _first(records, predicate):
    return next(record for record in records if predicate(record))


def _timing(result):
    result.records[7].issue_time += 1


def _enum(result):
    record = result.records[7]
    record.dispatch_reason = (
        DispatchReason.ROB_FULL
        if record.dispatch_reason is not DispatchReason.ROB_FULL
        else DispatchReason.FETCH_BANDWIDTH
    )


def _waiter(result):
    # An engine empties a producer's waiter list when it issues, so a
    # finished run's lists are empty; a stray waiter must still show.
    result.records[7].waiters.append(result.records[8])


def _forwarded(result):
    record = _first(result.records, lambda r: r.forwarded_to_clusters)
    cluster = next(iter(record.forwarded_to_clusters))
    record.forwarded_to_clusters[cluster] += 1


def _instr(result):
    record = result.records[7]
    record.instr = dataclasses.replace(record.instr, pc=record.instr.pc + 1)


def _mispredicted(result):
    result.mispredicted = result.mispredicted ^ {3}


@pytest.fixture(scope="module")
def clean():
    return simulate(_JOB)


@pytest.mark.parametrize(
    "mutate",
    [_timing, _enum, _waiter, _forwarded, _instr, _mispredicted],
    ids=["timing", "enum", "waiter", "forwarded", "instr", "mispredicted"],
)
def test_results_identical_sees_each_mutation(clean, mutate):
    other = simulate(_JOB)
    assert results_identical(clean, other)
    mutate(other)
    assert not results_identical(clean, other)


def test_results_identical_compares_waiters_by_trace_index():
    a, b = simulate(_JOB), simulate(_JOB)
    a.records[7].waiters = [a.records[8]]
    b.records[7].waiters = [b.records[8]]
    assert results_identical(a, b)
    b.records[7].waiters = [b.records[9]]
    assert not results_identical(a, b)


# ---------------------------------------------------------------------------
# The summary codec round-trips exactly
# ---------------------------------------------------------------------------


@st.composite
def jobs(draw):
    sim = draw(st.sampled_from(["event", "reference", "batched"]))
    clusters = draw(st.sampled_from([1, 2, 4]))
    return RunJob(
        kernel=draw(st.sampled_from(["gcc", "vpr", "mcf"])),
        instructions=draw(st.integers(min_value=120, max_value=360)),
        seed=draw(st.integers(min_value=0, max_value=3)),
        loc_mode="probabilistic",
        config=monolithic_machine() if clusters == 1 else clustered_machine(clusters),
        policy=draw(st.sampled_from(["dependence", "focused", "l", "s", "p"])),
        collect_ilp=draw(st.booleans()),
        warm=draw(st.booleans()),
        sim=sim,
        metrics=sim != "batched" and draw(st.booleans()),
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(job=jobs())
def test_summary_round_trips_exactly(job):
    summary = execute_job(job)
    revived = result_from_dict(json.loads(json.dumps(result_to_dict(summary))))
    assert revived == summary
    assert list(revived.loc_by_pc.items()) == list(summary.loc_by_pc.items())


# ---------------------------------------------------------------------------
# Every figure renders identically from every source
# ---------------------------------------------------------------------------

_INSTRUCTIONS = 300
_KERNELS = ("gcc", "vpr")


def _render(bench: Workbench) -> dict[str, str]:
    # JSON text: a figure may hold NaN cells, which never compare equal.
    return {
        name: json.dumps(run(bench).to_dict(), sort_keys=True)
        for name, run in EXPERIMENTS.items()
    }


def _bench(**kwargs) -> Workbench:
    return Workbench(
        instructions=_INSTRUCTIONS,
        benchmarks=[get_kernel(name) for name in _KERNELS],
        **kwargs,
    )


def test_every_experiment_renders_identically_from_every_source(tmp_path):
    assert len(EXPERIMENTS) == 11
    reference = _render(_bench())

    cold = _bench(cache=RunCache(tmp_path))
    assert _render(cold) == reference
    assert cold.simulations_run > 0

    warm = _bench(cache=RunCache(tmp_path))
    assert _render(warm) == reference
    assert warm.simulations_run == 0

    assert _render(_bench(workers=2)) == reference
