"""Summaries from columns equal the record functions, everywhere.

:func:`~repro.analysis.summary.summarize` reads a run's columns, one walk
of its critical path and the per-trace tables.  The record functions
(``cpi_breakdown``, ``critical_flags``, ``classify_lost_cycle_events``,
``exact_loc_by_pc``, ``consumer_criticality_stats``) are the reference:

* every engine, the batched policy matrix on 1/2/4/8 clusters and the
  heterogeneous machines give the same summary both ways, field by field
  and as encoded JSON text, at 300 instructions and past one 2048-chunk;
* the column walk over any ``[lo, hi)`` is ``analyze_critical_path`` of
  that slice, and the grouped consumer table stays exact when one
  consumer reads a producer twice;
* a batched ``execute_job`` builds no ``InFlight``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.batch as batch
from repro.analysis.breakdown import cpi_breakdown
from repro.analysis.consumers import consumer_criticality_stats, exact_loc_by_pc
from repro.analysis.events import classify_lost_cycle_events
from repro.analysis.summary import summarize
from repro.core.config import clustered_machine, monolithic_machine
from repro.core.instruction import InFlight
from repro.core.rename import Dependences
from repro.core.results import RunColumns, RunSummary, SimulationResult
from repro.core.serialize import result_to_dict
from repro.criticality.critical_path import (
    analyze_critical_path,
    critical_flags,
    walk_columns,
)
from repro.experiments.batch import batchable_config
from repro.experiments.harness import POLICY_NAMES
from repro.experiments.hetero import hetero_machines
from repro.experiments.parallel import RunJob, execute_job, simulate


def record_summary(result: SimulationResult) -> RunSummary:
    """The summary as the record functions compute it."""
    records = result.records
    flags = critical_flags(records)
    loc_by_pc = exact_loc_by_pc(records, flags)
    return RunSummary(
        config=result.config,
        cycles=result.cycles,
        instructions=result.instructions,
        global_values=result.global_values,
        l1_hits=result.l1_hits,
        l1_misses=result.l1_misses,
        steering_name=result.steering_name,
        scheduler_name=result.scheduler_name,
        ilp_profile=result.ilp_profile,
        breakdown=cpi_breakdown(result),
        lost_cycle_events=classify_lost_cycle_events(records, flags),
        loc_by_pc=loc_by_pc,
        pc_counts=dict(Counter(record.instr.pc for record in records)),
        consumer_stats=consumer_criticality_stats(records, loc_by_pc, flags=flags),
        latencies=tuple(record.latency for record in records),
        telemetry=result.telemetry,
    )


def assert_same_summary(got: RunSummary, want: RunSummary) -> None:
    for field in dataclasses.fields(RunSummary):
        name = field.name
        assert getattr(got, name) == getattr(want, name), name
    # As JSON text, so the order of every pair list counts too.
    assert json.dumps(result_to_dict(got)) == json.dumps(result_to_dict(want))


def _machine(clusters: int):
    return monolithic_machine() if clusters == 1 else clustered_machine(clusters)


def _job(config, policy, *, sim: str, instructions: int = 300, kernel: str = "gcc") -> RunJob:
    return RunJob(
        kernel=kernel,
        instructions=instructions,
        seed=0,
        loc_mode="probabilistic",
        config=config,
        policy=policy,
        collect_ilp=True,
        sim=sim,
    )


def _check(job: RunJob) -> None:
    want = record_summary(simulate(job))
    # From the memo's tables (execute_job) and from the run's own columns.
    assert_same_summary(execute_job(job), want)
    assert_same_summary(summarize(simulate(job)), want)


@pytest.mark.parametrize("clusters", (1, 2, 4, 8))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_batched_policy_matrix(policy, clusters):
    _check(_job(_machine(clusters), policy, sim="batched", kernel="vpr"))


@pytest.mark.parametrize("sim", ("event", "reference"))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_event_and_reference_engines(sim, policy):
    _check(_job(_machine(4), policy, sim=sim))


@pytest.mark.parametrize("label,config", hetero_machines(), ids=[m[0] for m in hetero_machines()])
@pytest.mark.parametrize("policy", ("dependence", "l", "affinity"))
def test_hetero_machines(label, config, policy):
    sim = "batched" if batchable_config(config) and policy != "affinity" else "event"
    _check(_job(config, policy, sim=sim, kernel="mcf"))


@pytest.mark.parametrize("sim", ("event", "reference", "batched"))
def test_past_one_chunk(sim):
    """5000 instructions: three chunked walks plus the whole-run walk."""
    _check(_job(_machine(4), "l", sim=sim, instructions=5000))


# ---------------------------------------------------------------------------
# The column walk, slice by slice, and duplicate consumers
# ---------------------------------------------------------------------------


def _with_duplicate_consumers(result: SimulationResult, every: int) -> SimulationResult:
    """``result`` with every ``every``-th reader of a register reading its
    first producer twice (``reg_deps`` ``(p, ...)`` -> ``(p, ..., p)``)."""
    records = result.records
    seen = 0
    for record in records:
        deps = record.deps
        if deps.reg_deps:
            seen += 1
            if seen % every == 0:
                record.deps = Dependences(deps.reg_deps + deps.reg_deps[:1], deps.mem_dep)
    return SimulationResult(
        result.config,
        result.cycles,
        result.mispredicted,
        records=records,
        ilp_profile=result.ilp_profile,
        steering_name=result.steering_name,
        scheduler_name=result.scheduler_name,
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    kernel=st.sampled_from(("gcc", "vpr", "mcf", "twolf")),
    instructions=st.integers(min_value=40, max_value=700),
    clusters=st.sampled_from((1, 2, 4, 8)),
    policy=st.sampled_from(POLICY_NAMES),
    sim=st.sampled_from(("event", "batched")),
    every=st.integers(min_value=1, max_value=5),
    bounds=st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
)
def test_column_walk_and_duplicate_consumers(
    kernel, instructions, clusters, policy, sim, every, bounds
):
    job = _job(_machine(clusters), policy, sim=sim, instructions=instructions, kernel=kernel)
    result = _with_duplicate_consumers(simulate(job), every)
    records = result.records
    n = len(records)
    columns = RunColumns.from_records(records)
    lo, hi = sorted(min(int(b * n), n - 1) for b in bounds)
    hi = max(hi, lo + 1)
    for start, stop in ((0, n), (lo, hi), (max(lo, 1), n)):
        assert walk_columns(columns, start, stop) == analyze_critical_path(records[start:stop])
    assert any(len(set(record.deps.all_deps)) < len(record.deps.all_deps) for record in records)
    assert_same_summary(summarize(result), record_summary(result))


def test_walk_of_an_empty_range_is_rejected():
    result = simulate(_job(_machine(2), "dependence", sim="batched"))
    with pytest.raises(ValueError):
        walk_columns(result.columns, 5, 5)


# ---------------------------------------------------------------------------
# The batched path builds no records
# ---------------------------------------------------------------------------


def test_batched_execute_job_builds_no_inflight(monkeypatch):
    runs = []
    engine = batch.simulate_batched

    def spy(*args, **kwargs):
        result = engine(*args, **kwargs)
        runs.append(result)
        return result

    def no_records(self):
        raise AssertionError("a batched summary built InFlight records")

    def no_inflight(self, *args):
        raise AssertionError("an InFlight was constructed")

    monkeypatch.setattr(batch, "simulate_batched", spy)
    monkeypatch.setattr(RunColumns, "to_records", no_records)
    monkeypatch.setattr(InFlight, "__init__", no_inflight)
    job = _job(_machine(4), "l", sim="batched", kernel="mcf")
    summary = execute_job(job)
    assert summary.instructions == 300
    assert runs and all(result._records is None for result in runs)
    # The guards bite: reading records, or running the event engine, fails.
    with pytest.raises(AssertionError, match="InFlight records"):
        runs[-1].records
    with pytest.raises(AssertionError, match="constructed"):
        simulate(dataclasses.replace(job, sim="event"))
