"""Tests for the experiment Workbench and policy construction.

Everything here imports from :mod:`repro.api` -- the stable facade must
cover the whole harness workflow without deep imports.
"""

import pytest

from repro.api import (
    CriticalFirstScheduler,
    CriticalitySteering,
    DependenceSteering,
    LocScheduler,
    OldestFirstScheduler,
    Workbench,
    get_kernel,
    monolithic_machine,
    resolve_policy,
)


def _stack(name):
    return resolve_policy(name).build()


@pytest.fixture(scope="module")
def bench():
    return Workbench(instructions=2000, benchmarks=[get_kernel("gcc")])


class TestBuildPolicy:
    def test_dependence_stack(self):
        steering, scheduler, needs = _stack("dependence")
        assert isinstance(steering, DependenceSteering)
        assert isinstance(scheduler, OldestFirstScheduler)
        assert not needs

    def test_focused_stack(self):
        steering, scheduler, needs = _stack("focused")
        assert isinstance(steering, CriticalitySteering)
        assert steering.config.preference == "binary"
        assert isinstance(scheduler, CriticalFirstScheduler)
        assert needs

    def test_l_stack_uses_loc(self):
        steering, scheduler, __ = _stack("l")
        assert steering.config.preference == "loc"
        assert not steering.config.stall_over_steer
        assert isinstance(scheduler, LocScheduler)

    def test_s_stack_adds_stalling(self):
        steering, __, __n = _stack("s")
        assert steering.config.stall_over_steer
        assert not steering.config.proactive
        assert steering.config.stall_loc_threshold == pytest.approx(0.30)

    def test_p_stack_adds_proactive(self):
        steering, __, __n = _stack("p")
        assert steering.config.stall_over_steer
        assert steering.config.proactive

    def test_fresh_instances_each_call(self):
        a, __, __n = _stack("s")
        b, __, __n2 = _stack("s")
        assert a is not b


class TestWorkbenchCaching:
    def test_distinct_configs_not_conflated(self, bench):
        spec = get_kernel("gcc")
        four = bench.run(spec, bench.clustered(4), "dependence")
        eight = bench.run(spec, bench.clustered(8), "dependence")
        assert four is not eight

    def test_forwarding_latency_part_of_key(self, bench):
        spec = get_kernel("gcc")
        fast = bench.run(spec, bench.clustered(4, forwarding_latency=1), "dependence")
        slow = bench.run(spec, bench.clustered(4, forwarding_latency=4), "dependence")
        assert fast is not slow
        assert fast.cycles <= slow.cycles

    def test_policies_not_conflated(self, bench):
        spec = get_kernel("gcc")
        a = bench.run(spec, bench.clustered(4), "dependence")
        b = bench.run(spec, bench.clustered(4), "focused")
        assert a is not b

    def test_monolithic_baseline_shape(self, bench):
        result = bench.monolithic_baseline(get_kernel("gcc"))
        assert result.config.name == "1x8w"


class TestWorkbenchModes:
    def test_loc_mode_plumbs_through(self):
        bench = Workbench(
            instructions=1500,
            benchmarks=[get_kernel("gcc")],
            loc_mode="exact",
        )
        result = bench.run(get_kernel("gcc"), monolithic_machine(), "l")
        assert result.instructions == 1500

    def test_invalid_loc_mode_raises_on_run(self):
        bench = Workbench(
            instructions=1000,
            benchmarks=[get_kernel("gcc")],
            loc_mode="bogus",
        )
        with pytest.raises(ValueError):
            bench.run(get_kernel("gcc"), monolithic_machine(), "l")

    def test_seed_changes_trace(self):
        a = Workbench(instructions=1000, seed=0).prepare(get_kernel("gcc"))
        b = Workbench(instructions=1000, seed=1).prepare(get_kernel("gcc"))
        assert a.trace != b.trace

    def test_prepared_is_annotated(self, bench):
        prepared = bench.prepare(get_kernel("gcc"))
        assert len(prepared.trace) == len(prepared.dependences) == 2000
        assert all(i in range(2000) for i in prepared.mispredicted)


class TestCacheKeyCompleteness:
    def test_bandwidth_configs_not_conflated(self):
        import dataclasses

        from repro.api import clustered_machine

        bench = Workbench(instructions=1200, benchmarks=[get_kernel("gcc")])
        wide = clustered_machine(8)
        narrow = dataclasses.replace(wide, forwarding_bandwidth=1)
        a = bench.run(get_kernel("gcc"), wide, "dependence")
        b = bench.run(get_kernel("gcc"), narrow, "dependence")
        assert a is not b
