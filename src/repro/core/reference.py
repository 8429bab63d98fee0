"""Reference cycle-driven simulator: the pre-optimization timing loop.

This module freezes the straightforward per-cycle implementation of the
clustered timing model (linear scans of the ready pools, a full
priority-sort of every cluster's ready pool every cycle) exactly as it
stood before :mod:`repro.core.simulator` was rewritten to be
event-driven.  It exists as a *differential oracle*: the optimized
simulator must produce bit-identical :class:`~repro.core.results.
SimulationResult`\\ s to this one on every (trace, config, policy)
combination -- an invariant enforced by ``tests/test_differential.py``
across the full policy matrix and by the golden figure snapshots.

Do not optimize this module.  Its value is that it is obviously correct
and changes only when the *timing semantics* legitimately change -- in
which case the optimized simulator, the goldens and
``CACHE_SCHEMA_VERSION`` must all move in the same commit.

The only post-freeze change is the memoization of
:meth:`ReferenceSimulator.cluster_ready_pressure` (stamped by cycle and
a per-cluster mutation counter, so it is a pure cache with unchanged
observable behaviour): readiness-aware steering queries the pressure of
every cluster on every dispatch attempt, which made the un-memoized scan
quadratic in dispatch width.

Select this path per job with ``RunJob(sim="reference")`` or per
workbench with ``Workbench(sim="reference")``; it is a test oracle, not
a production backend.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.core.config import MachineConfig
from repro.core.instruction import (
    CommitReason,
    DispatchReason,
    InFlight,
    SteerCause,
)
from repro.core.rename import Dependences, extract_dependences
from repro.core.results import IlpProfile, SimulationResult
from repro.core.scheduling.policies import OldestFirstScheduler, SchedulingPolicy
from repro.core.simulator import (
    PredictorSuiteLike,
    SimulationDiverged,
    TrainerLike,
    _port_class,
)
from repro.core.steering.base import SteeringPolicy, capability_redirect
from repro.core.steering.dependence import DependenceSteering
from repro.frontend.branch_predictor import (
    GshareBranchPredictor,
    annotate_mispredictions,
)
from repro.frontend.fetch import FrontEndModel
from repro.memory.cache import MemoryHierarchy
from repro.vm.trace import DynamicInstruction


class ReferenceSimulator:
    """Runs one dynamic trace through a configured machine (reference path).

    Same constructor and :meth:`run` contract as
    :class:`~repro.core.simulator.ClusteredSimulator`; the two are
    interchangeable and bit-identical, this one is just slower.
    """

    def __init__(
        self,
        config: MachineConfig,
        steering: SteeringPolicy | None = None,
        scheduler: SchedulingPolicy | None = None,
        predictors: PredictorSuiteLike | None = None,
        trainer: TrainerLike | None = None,
        collect_ilp: bool = False,
        max_cycles: int | None = None,
    ):
        self.config = config
        self.steering = steering or DependenceSteering()
        self.scheduler = scheduler or OldestFirstScheduler()
        self.predictors = predictors
        self.trainer = trainer
        self.collect_ilp = collect_ilp
        self.max_cycles = max_cycles

        # MachineView attributes for the steering policy.
        self.num_clusters = config.num_clusters
        self.forwarding_latency = config.forwarding_latency
        self.now = 0
        # Per-cluster geometry and latency overrides, indexed by cluster id.
        self._window_sizes = [entry.window_size for entry in config.clusters]
        self._lat_over = [dict(entry.latency_overrides) for entry in config.clusters]

    # ------------------------------------------------------------------
    # MachineView protocol
    # ------------------------------------------------------------------
    def window_free(self, cluster: int) -> int:
        """Free scheduling-window entries at ``cluster``."""
        return self._window_sizes[cluster] - self._occupancy[cluster]

    def ports_for(self, cluster: int, opclass) -> int:
        """Issue ports ``cluster`` has for ``opclass``'s pool."""
        return self.config.clusters[cluster].ports_for(opclass)

    def cluster_latency(self, cluster: int, opclass) -> int:
        """Execution latency of ``opclass`` on ``cluster``."""
        return self.config.clusters[cluster].latency_for(opclass)

    def cluster_load(self, cluster: int) -> int:
        """Dispatched-but-unissued instruction count at ``cluster``."""
        return self._occupancy[cluster]

    def record(self, index: int) -> InFlight:
        """State of a previously dispatched instruction."""
        return self._records[index]

    def cluster_ready_pressure(self, cluster: int, horizon: int = 0) -> int:
        """Instructions at ``cluster`` ready now or within ``horizon`` cycles.

        The signal the paper's closing discussion says optimal load
        balancing needs ("a cluster that does not already have, and will
        not soon have, ready instructions").

        Memoized per (cluster, cycle, horizon): the cached count is
        reused until the cluster's wakeup list or ready pool mutates, so
        repeated steering queries within one dispatch burst cost O(1).
        """
        stamp = (self.now, self._pressure_version[cluster])
        memo_key = (cluster, horizon)
        hit = self._pressure_memo.get(memo_key)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        deadline = self.now + horizon
        count = len(self._ready_pool[cluster])
        count += sum(1 for t, __ in self._wakeup[cluster] if t <= deadline)
        self._pressure_memo[memo_key] = (stamp, count)
        return count

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Sequence[DynamicInstruction],
        dependences: Sequence[Dependences] | None = None,
        mispredicted: frozenset[int] | None = None,
    ) -> SimulationResult:
        """Simulate ``trace`` to completion and return the results.

        ``dependences`` and ``mispredicted`` may be precomputed (they are
        config-independent) and shared across runs of the same trace.
        """
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        if dependences is None:
            dependences = extract_dependences(trace)
        if mispredicted is None:
            mispredicted = frozenset(
                annotate_mispredictions(trace, GshareBranchPredictor())
            )

        config = self.config
        num_clusters = config.num_clusters
        fwd = config.forwarding_latency
        self.steering.reset()

        records = [InFlight(instr, deps) for instr, deps in zip(trace, dependences)]
        self._records = records
        # Per-cycle global-bypass usage (only tracked for finite bandwidth).
        self._transfer_used: dict[int, int] = {}
        self._occupancy = [0] * num_clusters
        self._last_issued = [-1] * num_clusters
        # Per-cluster min-heap of (ready_time, index) for wakeup, plus the
        # pool of currently ready-but-unissued instructions.
        wakeup: list[list[tuple[int, int]]] = [[] for _ in range(num_clusters)]
        self._wakeup = wakeup
        ready_pool: list[list[InFlight]] = [[] for _ in range(num_clusters)]
        self._ready_pool = ready_pool
        self._pressure_memo: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
        self._pressure_version = [0] * num_clusters

        frontend = FrontEndModel(trace, mispredicted, config.frontend)
        memory = MemoryHierarchy(config.memory)
        ilp = IlpProfile() if self.collect_ilp else None

        key = self.scheduler.priority_key
        l1_hit = config.memory.l1.hit_latency
        clusters_cfg = config.clusters
        port_limits = [
            (entry.int_ports, entry.fp_ports, entry.mem_ports)
            for entry in clusters_cfg
        ]
        # Capability table: for each port pool, the clusters that can ever
        # issue it.  Only built when some cluster has a zero-port pool.
        capable: list[tuple[int, ...]] | None = None
        if any(limits[1] == 0 or limits[2] == 0 for limits in port_limits):
            capable = [
                tuple(c for c in range(num_clusters) if port_limits[c][pool] > 0)
                for pool in range(3)
            ]

        global_values = 0
        rob_count = 0
        commit_ptr = 0
        total = len(records)
        now = 0
        # Cause of the current head-of-dispatch block, if any.
        head_block: tuple[DispatchReason, int | None] | None = None
        deadlock_limit = self.max_cycles

        while commit_ptr < total:
            self.now = now

            # ---- commit phase -------------------------------------------
            committed = 0
            while commit_ptr < total and committed < config.commit_width:
                rec = records[commit_ptr]
                if rec.complete_time < 0 or rec.complete_time + 1 > now:
                    break
                rec.commit_time = now
                rec.commit_reason = (
                    CommitReason.COMPLETION
                    if rec.complete_time + 1 == now
                    else CommitReason.COMMIT_ORDER
                )
                rob_count -= 1
                commit_ptr += 1
                committed += 1
                if self.trainer is not None:
                    self.trainer.on_commit(rec)
                self.steering.on_commit(rec)
            if commit_ptr >= total:
                break

            # ---- issue phase --------------------------------------------
            available_this_cycle = 0
            issued_this_cycle = 0
            for cluster in range(num_clusters):
                heap = wakeup[cluster]
                pool = ready_pool[cluster]
                if heap and heap[0][0] <= now:
                    self._pressure_version[cluster] += 1
                    while heap and heap[0][0] <= now:
                        __, idx = heapq.heappop(heap)
                        pool.append(records[idx])
                if not pool:
                    continue
                available_this_cycle += len(pool)
                self._pressure_version[cluster] += 1
                pool.sort(key=key)
                leftovers: list[InFlight] = []
                issued = 0
                ports_used = [0, 0, 0]
                cluster_cfg = clusters_cfg[cluster]
                limits = port_limits[cluster]
                for rec in pool:
                    if issued >= cluster_cfg.issue_width:
                        leftovers.append(rec)
                        continue
                    pclass = _port_class(rec.instr.opclass)
                    if ports_used[pclass] >= limits[pclass]:
                        leftovers.append(rec)
                        continue
                    ports_used[pclass] += 1
                    issued += 1
                    self._issue(rec, now, memory, l1_hit, frontend, mispredicted)
                    self._occupancy[cluster] -= 1
                    self._last_issued[cluster] = rec.index
                    global_values += self._wake_consumers(rec, fwd)
                ready_pool[cluster] = leftovers
                issued_this_cycle += issued
            if ilp is not None:
                ilp.record(available_this_cycle, issued_this_cycle)

            # ---- fetch phase --------------------------------------------
            frontend.tick(now)

            # ---- dispatch/steer phase -----------------------------------
            dispatched = 0
            while dispatched < config.dispatch_width:
                head = frontend.peek()
                if head is None:
                    if not frontend.exhausted and frontend.blocked_on is not None:
                        head_block = (
                            DispatchReason.FETCH_REDIRECT,
                            frontend.blocked_on,
                        )
                    break
                rec = records[head.index]
                if rob_count >= config.rob_size:
                    head_block = (DispatchReason.ROB_FULL, head.index - config.rob_size)
                    break
                if self.predictors is not None:
                    rec.predicted_critical = self.predictors.predict_critical(head.pc)
                    rec.loc = self.predictors.loc(head.pc)
                decision = self.steering.choose(rec, self)
                if capable is not None and decision.cluster is not None:
                    pool_c = _port_class(rec.instr.opclass)
                    if port_limits[decision.cluster][pool_c] == 0:
                        # The steered cluster can never execute this op
                        # class; redirect to the least-loaded capable
                        # cluster or stall.
                        decision = capability_redirect(self, capable[pool_c])
                if decision.is_stall:
                    blocking = decision.blocking_cluster
                    pred = (
                        self._last_issued[blocking] if blocking is not None else None
                    )
                    head_block = (decision.stall_reason, pred)
                    break

                frontend.pop()
                cluster = decision.cluster
                rec.cluster = cluster
                rec.steer_cause = decision.cause
                rec.dispatch_time = now
                self._set_dispatch_reason(rec, head_block, frontend)
                head_block = None
                self._occupancy[cluster] += 1
                rob_count += 1
                global_values += self._wire_dependences(rec, records, wakeup, fwd)
                dispatched += 1

            now += 1
            if deadlock_limit is not None and now > deadlock_limit:
                raise SimulationDiverged(deadlock_limit, commit_ptr, total)

        if self.trainer is not None:
            self.trainer.finish()
        return SimulationResult(
            config=config,
            records=records,
            cycles=records[-1].commit_time + 1,
            mispredicted=mispredicted,
            global_values=global_values,
            l1_hits=memory.l1.hits,
            l1_misses=memory.l1.misses,
            ilp_profile=ilp,
            steering_name=self.steering.name,
            scheduler_name=self.scheduler.name,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _issue(
        self,
        rec: InFlight,
        now: int,
        memory: MemoryHierarchy,
        l1_hit: int,
        frontend: FrontEndModel,
        mispredicted: frozenset[int],
    ) -> None:
        """Begin execution of ``rec`` at cycle ``now``."""
        instr = rec.instr
        rec.issue_time = now
        overrides = self._lat_over[rec.cluster]
        if overrides:
            latency = overrides.get(instr.opclass.value, instr.base_latency)
        else:
            latency = instr.base_latency
        if instr.is_load:
            access = memory.load_latency(instr.mem_addr)
            latency += access
            rec.mem_latency_extra = max(0, access - l1_hit)
        elif instr.is_store:
            memory.store_access(instr.mem_addr)
        rec.latency = latency
        rec.complete_time = now + latency
        if instr.index in mispredicted:
            frontend.resolve_misprediction(instr.index, rec.complete_time)

    def _wake_consumers(self, producer: InFlight, fwd: int) -> int:
        """Notify dispatched consumers that ``producer``'s result is timed.

        Returns the number of new cross-cluster value transfers.
        """
        transfers = 0
        complete = producer.complete_time
        for waiter in producer.waiters:
            is_mem_dep = waiter.deps.mem_dep == producer.index
            crossed = not is_mem_dep and waiter.cluster != producer.cluster
            if crossed:
                arrival, new = self._remote_arrival(producer, waiter.cluster, fwd)
                transfers += new
            else:
                arrival = complete
            if arrival >= waiter.operand_avail:
                waiter.operand_avail = arrival
                waiter.last_arriving_producer = producer.index
                waiter.critical_operand_forwarded = crossed
            waiter.pending_deps -= 1
            if waiter.pending_deps == 0:
                waiter.ready_time = max(waiter.dispatch_time + 1, waiter.operand_avail)
                heapq.heappush(
                    self._wakeup[waiter.cluster], (waiter.ready_time, waiter.index)
                )
                self._pressure_version[waiter.cluster] += 1
        producer.waiters = []
        return transfers

    def _wire_dependences(
        self,
        rec: InFlight,
        records: list[InFlight],
        wakeup: list[list[tuple[int, int]]],
        fwd: int,
    ) -> int:
        """Connect a newly dispatched instruction to its producers.

        Returns the number of new cross-cluster value transfers.
        """
        pending = 0
        transfers = 0
        for dep in rec.deps.all_deps:
            producer = records[dep]
            if producer.issue_time < 0:
                producer.waiters.append(rec)
                pending += 1
                continue
            is_mem_dep = rec.deps.mem_dep == dep
            crossed = not is_mem_dep and producer.cluster != rec.cluster
            if crossed:
                arrival, new = self._remote_arrival(producer, rec.cluster, fwd)
                transfers += new
            else:
                arrival = producer.complete_time
            if arrival >= rec.operand_avail:
                rec.operand_avail = arrival
                rec.last_arriving_producer = producer.index
                rec.critical_operand_forwarded = crossed
        rec.pending_deps = pending
        if pending == 0:
            rec.ready_time = max(rec.dispatch_time + 1, rec.operand_avail)
            heapq.heappush(wakeup[rec.cluster], (rec.ready_time, rec.index))
            self._pressure_version[rec.cluster] += 1
        return transfers

    def _remote_arrival(
        self, producer: InFlight, cluster: int, fwd: int
    ) -> tuple[int, int]:
        """Arrival time of ``producer``'s value at a remote ``cluster``.

        The first request allocates one global-bypass transfer (claiming a
        bandwidth slot when the interconnect is finite); later consumers in
        the same cluster reuse it.  Returns (arrival, 1-if-new-transfer).
        """
        arrival = producer.forwarded_to_clusters.get(cluster)
        if arrival is not None:
            return arrival, 0
        departure = producer.complete_time
        bandwidth = self.config.forwarding_bandwidth
        if bandwidth is not None:
            used = self._transfer_used
            while used.get(departure, 0) >= bandwidth:
                departure += 1
            used[departure] = used.get(departure, 0) + 1
        arrival = departure + fwd
        producer.forwarded_to_clusters[cluster] = arrival
        return arrival, 1

    def _set_dispatch_reason(
        self,
        rec: InFlight,
        head_block: tuple[DispatchReason, int | None] | None,
        frontend: FrontEndModel,
    ) -> None:
        """Record why this instruction dispatched exactly when it did."""
        if head_block is not None:
            rec.dispatch_reason, rec.dispatch_pred = head_block
            if rec.dispatch_reason is DispatchReason.STEER_STALL:
                rec.steer_cause = SteerCause.STALLED
            if rec.dispatch_pred is not None and rec.dispatch_pred < 0:
                # ROB-full at the very start of the run degenerates to fetch.
                rec.dispatch_reason = DispatchReason.FETCH_BANDWIDTH
                rec.dispatch_pred = rec.index - 1 if rec.index > 0 else None
            return
        redirect = frontend.redirect_source(rec.index)
        if redirect is not None:
            rec.dispatch_reason = DispatchReason.FETCH_REDIRECT
            rec.dispatch_pred = redirect
        elif rec.index == 0:
            rec.dispatch_reason = DispatchReason.START
            rec.dispatch_pred = None
        else:
            rec.dispatch_reason = DispatchReason.FETCH_BANDWIDTH
            rec.dispatch_pred = rec.index - 1
