"""Core timing-simulator behaviour on hand-built dataflow patterns."""

import gc
import weakref

import pytest

from repro.core.config import clustered_machine, monolithic_machine
from repro.core.instruction import DispatchReason
from repro.core.reference import ReferenceSimulator
from repro.core.simulator import ClusteredSimulator, SimulationDeadlock
from repro.core.steering.dependence import CriticalitySteering, DependenceSteering
from repro.core.steering.simple import LoadBalanceSteering, ModuloSteering
from repro.frontend.fetch import FrontEndConfig
from repro.workloads.patterns import (
    convergent_pairs,
    load_chain,
    parallel_chains,
    serial_chain,
)

import dataclasses


def run_sim(trace, config, steering=None, **kwargs):
    sim = ClusteredSimulator(config, steering=steering, max_cycles=200_000, **kwargs)
    return sim.run(trace, mispredicted=frozenset())


class TestMonolithicTiming:
    def test_serial_chain_executes_one_per_cycle(self):
        n = 200
        result = run_sim(serial_chain(n), monolithic_machine())
        # Depth-13 fill + one add per cycle + commit tail.
        assert n + 13 <= result.cycles <= n + 20

    def test_parallel_chains_fill_width(self):
        n = 100
        result = run_sim(parallel_chains(8, n), monolithic_machine())
        # Eight independent chains: all 8 lanes busy, ~n cycles of execute.
        assert result.cycles <= n + 25

    def test_width_bounds_ipc(self):
        result = run_sim(parallel_chains(16, 50), monolithic_machine())
        assert result.ipc <= 8.0 + 1e-9

    def test_issue_never_precedes_readiness(self):
        result = run_sim(parallel_chains(4, 50), monolithic_machine())
        for rec in result.records:
            assert rec.issue_time >= rec.ready_time
            assert rec.ready_time >= rec.dispatch_time + 1

    def test_commit_in_order(self):
        result = run_sim(parallel_chains(4, 50), monolithic_machine())
        times = [rec.commit_time for rec in result.records]
        assert times == sorted(times)

    def test_complete_respects_latency(self):
        result = run_sim(serial_chain(20), monolithic_machine())
        for rec in result.records:
            assert rec.complete_time == rec.issue_time + rec.latency


class TestClusteredTiming:
    def test_forwarding_latency_slows_split_chain(self):
        # Modulo steering forces every hop of a serial chain across
        # clusters: each add costs 1 (exec) + 2 (forward) cycles.
        n = 100
        config = clustered_machine(2, forwarding_latency=2)
        split = run_sim(serial_chain(n), config, steering=ModuloSteering())
        local = run_sim(serial_chain(n), config)  # dependence steering
        assert split.cycles > local.cycles + n  # ~2 extra cycles per hop

    def test_forwarding_latency_zero_matches_monolithic_chain(self):
        n = 100
        config = clustered_machine(2, forwarding_latency=0)
        split = run_sim(serial_chain(n), config, steering=ModuloSteering())
        mono = run_sim(serial_chain(n), monolithic_machine())
        assert abs(split.cycles - mono.cycles) <= 2

    def test_global_values_counted_for_cross_cluster_consumers(self):
        n = 50
        config = clustered_machine(2, forwarding_latency=2)
        result = run_sim(serial_chain(n), config, steering=ModuloSteering())
        # Every link of the chain crosses clusters.
        assert result.global_values >= n - 2

    def test_dependence_steering_keeps_chain_local(self):
        result = run_sim(serial_chain(100), clustered_machine(4))
        assert result.global_values_per_instruction < 0.2

    def test_mem_port_limit_per_cluster(self):
        # 4x2w has one memory port per cluster: issue times of loads on one
        # cluster must be distinct cycles.
        trace = load_chain(40)
        result = run_sim(trace, clustered_machine(4))
        by_cluster_cycle = {}
        for rec in result.records:
            key = (rec.cluster, rec.issue_time)
            by_cluster_cycle[key] = by_cluster_cycle.get(key, 0) + 1
        assert all(v <= 1 for v in by_cluster_cycle.values())

    def test_one_wide_cluster_issues_one_per_cycle(self):
        result = run_sim(parallel_chains(8, 30), clustered_machine(8))
        per_cluster_cycle = {}
        for rec in result.records:
            key = (rec.cluster, rec.issue_time)
            per_cluster_cycle[key] = per_cluster_cycle.get(key, 0) + 1
        assert all(v <= 1 for v in per_cluster_cycle.values())


class TestDispatchProvenance:
    def test_first_instruction_is_start(self):
        result = run_sim(serial_chain(10), monolithic_machine())
        assert result.records[0].dispatch_reason is DispatchReason.START

    def test_bandwidth_reason_chains_to_predecessor(self):
        result = run_sim(parallel_chains(2, 20), monolithic_machine())
        rec = result.records[10]
        if rec.dispatch_reason is DispatchReason.FETCH_BANDWIDTH:
            assert rec.dispatch_pred == rec.index - 1

    def test_window_fill_stalls_dispatch(self):
        # A long serial chain fills the aggregate window; dispatch must
        # eventually stall with CLUSTER_FULL or ROB_FULL provenance.
        result = run_sim(serial_chain(400), monolithic_machine())
        reasons = {rec.dispatch_reason for rec in result.records}
        assert DispatchReason.CLUSTER_FULL in reasons or (
            DispatchReason.ROB_FULL in reasons
        )


class TestContentionAccounting:
    def test_no_contention_when_width_suffices(self):
        result = run_sim(parallel_chains(4, 40), monolithic_machine())
        assert result.total_contention_cycles == 0

    def test_contention_when_oversubscribed(self):
        result = run_sim(parallel_chains(4, 40), clustered_machine(8))
        # Dependence steering may pile chains onto few 1-wide clusters --
        # but even perfectly spread, intra-cluster conflicts can occur.
        assert result.total_contention_cycles >= 0  # sanity: non-negative

    def test_convergent_pairs_execute(self):
        result = run_sim(convergent_pairs(30), clustered_machine(2))
        assert result.instructions == 90


class TestGuards:
    def test_empty_trace_rejected(self):
        sim = ClusteredSimulator(monolithic_machine())
        with pytest.raises(ValueError):
            sim.run([])

    def test_deadlock_guard_raises(self):
        sim = ClusteredSimulator(monolithic_machine(), max_cycles=5)
        with pytest.raises(SimulationDeadlock):
            sim.run(serial_chain(1000), mispredicted=frozenset())

    def test_load_balance_steering_spreads(self):
        result = run_sim(
            parallel_chains(8, 30),
            clustered_machine(8),
            steering=LoadBalanceSteering(),
        )
        clusters = {rec.cluster for rec in result.records}
        assert len(clusters) == 8


class TestRunLifetime:
    @pytest.mark.parametrize("engine", [ClusteredSimulator, ReferenceSimulator])
    @pytest.mark.parametrize("steering", [DependenceSteering, CriticalitySteering])
    def test_finished_run_freed_by_reference_counting(self, engine, steering):
        # The steering policy caches a view that holds the machine; a run
        # that left it in place would wait for the cyclic collector, with
        # every record of the run.
        gc.disable()
        try:
            sim = engine(clustered_machine(2), steering=steering(), max_cycles=200_000)
            result = sim.run(parallel_chains(4, 20), mispredicted=frozenset())
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
            assert result.instructions == 80
        finally:
            gc.enable()


class TestFrontEndIntegration:
    def test_shallower_pipeline_finishes_sooner(self):
        shallow = dataclasses.replace(
            monolithic_machine(), frontend=FrontEndConfig(depth_to_dispatch=1)
        )
        deep = monolithic_machine()
        t1 = run_sim(serial_chain(50), shallow).cycles
        t2 = run_sim(serial_chain(50), deep).cycles
        assert t2 - t1 == 12


class TestLimitedBandwidth:
    def make_config(self, bandwidth):
        return dataclasses.replace(
            clustered_machine(2, forwarding_latency=2),
            forwarding_bandwidth=bandwidth,
        )

    def test_infinite_matches_default(self):
        trace = serial_chain(100)
        a = run_sim(trace, self.make_config(None), steering=ModuloSteering())
        b = run_sim(
            trace, clustered_machine(2, forwarding_latency=2),
            steering=ModuloSteering(),
        )
        assert a.cycles == b.cycles

    def test_narrow_bandwidth_never_faster(self):
        # An odd chain count means modulo steering on 2 clusters makes
        # every chain hop clusters at every step.
        trace = parallel_chains(7, 40)
        wide = run_sim(trace, self.make_config(None), steering=ModuloSteering())
        narrow = run_sim(trace, self.make_config(1), steering=ModuloSteering())
        assert narrow.cycles >= wide.cycles

    def test_bandwidth_one_serializes_transfers(self):
        # 7 chains all hopping clusters every step demand ~7 transfers per
        # 3 cycles; one transfer per cycle makes the interconnect the
        # bottleneck: cycles ~ total transfer count ~ instructions.
        trace = parallel_chains(7, 40)
        narrow = run_sim(trace, self.make_config(1), steering=ModuloSteering())
        assert narrow.global_values > len(trace) * 0.8
        assert narrow.cycles > len(trace) * 0.8

    def test_transfer_reused_by_same_cluster_consumers(self):
        # Two consumers on the same remote cluster share one transfer.
        config = self.make_config(None)
        result = run_sim(serial_chain(50), config, steering=ModuloSteering())
        for rec in result.records:
            assert len(rec.forwarded_to_clusters) <= config.num_clusters - 1
