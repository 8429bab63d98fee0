"""Event-driven timing simulator for clustered (and monolithic) machines.

Each cycle runs four phases in order:

1. **commit** -- in-order retirement, up to the commit width;
2. **issue** -- every cluster's scheduler picks among its ready instructions,
   subject to the cluster's issue width and per-class ports; issuing frees
   the window entry, computes the completion time and wakes consumers
   (remote consumers see the value ``forwarding_latency`` cycles later);
3. **fetch** -- the front end delivers correct-path instructions under
   bandwidth and misprediction-redirect constraints;
4. **dispatch/steer** -- in-order dispatch assigns each instruction a cluster
   via the steering policy, allocating a window entry and a ROB entry;
   dispatch stalls on ROB-full, all-windows-full, or a deliberate
   stall-over-steer decision.

Besides timing, the simulator records the *cause* of every dispatch delay,
the last-arriving operand of every instruction, and every steering decision,
so that critical-path attribution (Figures 5/6) is a deterministic replay of
recorded facts.

This is the **optimized** implementation of the timing model; the
straightforward per-cycle loop it replaced lives on verbatim as
:class:`repro.core.reference.ReferenceSimulator`, and the two are
bit-identical on every (trace, config, policy) combination (enforced by
``tests/test_differential.py``).  The optimizations, none of which change
observable behaviour:

* **scan-free wakeup** -- each cluster keeps a wakeup min-heap and a
  priority-ordered ready heap (:class:`~repro.core.wakeup.
  ClusterWakeupQueue`); issue pops at most ``issue_width`` (+ the
  port-blocked few) entries per cycle instead of sorting the whole pool
  with per-element priority-key calls;
* **dispatch-time priorities** -- the scheduling policy's priority key is
  computed once per instruction at dispatch (its inputs -- predictor
  samples and trace index -- never change afterwards);
* **per-trace precomputation** -- port class, base latency and the
  dependence adjacency of every instruction are tabulated once per run
  instead of being re-derived per dispatch/issue;
* **idle-cycle skipping** -- when a cycle commits, issues, fetches and
  dispatches nothing, machine state is provably frozen until the next
  event (earliest wakeup, head-of-ROB completion, or front-end refill),
  so the clock jumps straight to it.  Repeated stalled steering queries
  in the skipped cycles are idempotent by construction, and the ILP
  profile records the skipped cycles as idle in bulk;
* **memoized ready pressure** -- ``cluster_ready_pressure`` caches its
  count per (cluster, cycle, horizon), stamped by the queue's mutation
  counter, so readiness-aware steering's per-dispatch scans collapse.

Observability: an optional ``telemetry`` sink (:mod:`repro.telemetry`)
snapshots per-cluster occupancy, ready/wakeup depths and ready pressure
every ``telemetry.interval`` cycles.  The hook is read-only and costs one
integer comparison per executed cycle when disabled, so telemetry never
changes simulation output and telemetry-off throughput is unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Protocol, Sequence

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
from repro.core.steering.base import SteeringPolicy, capability_redirect
from repro.core.steering.dependence import DependenceSteering
from repro.core.wakeup import ClusterWakeupQueue
from repro.frontend.branch_predictor import (
    GshareBranchPredictor,
    annotate_mispredictions,
)
from repro.frontend.fetch import FrontEndModel
from repro.memory.cache import MemoryHierarchy
from repro.vm.isa import BASE_LATENCY, OpClass
from repro.vm.trace import DynamicInstruction


class PredictorSuiteLike(Protocol):
    """Criticality information sampled at dispatch time."""

    def predict_critical(self, pc: int) -> bool: ...

    def loc(self, pc: int) -> float: ...


class TrainerLike(Protocol):
    """Observer of the retiring instruction stream."""

    def on_commit(self, record: InFlight) -> None: ...

    def finish(self) -> None: ...


class TelemetryLike(Protocol):
    """Optional observability sink (see :mod:`repro.telemetry`).

    ``sample`` must be read-only: attaching telemetry never changes
    simulation output (enforced by ``tests/test_telemetry.py``).
    """

    interval: int

    def sample(self, now, occupancy, queues) -> None: ...


# Sentinel "next telemetry sample" cycle when telemetry is off: larger
# than any reachable cycle count, so the hot loop pays exactly one int
# comparison per executed cycle and the sampling branch never fires.
_NO_SAMPLE = 1 << 62


class SimulationDiverged(RuntimeError):
    """Raised when a run exhausts its ``max_cycles`` guard.

    Either the machine stopped making progress (a simulator bug) or a
    pathological policy/geometry combination genuinely needs more than
    the CPI guard allows.  Carrying the committed/total counts lets the
    execution layer turn this into a typed, non-retryable ``diverged``
    outcome instead of a silent truncation or an opaque crash.
    """

    def __init__(self, limit: int, committed: int, total: int):
        super().__init__(
            f"exceeded {limit} cycles with {committed}/{total} committed"
        )
        self.limit = limit
        self.committed = committed
        self.total = total


# Historical name (pre-dates the typed-outcome layer); same exception.
SimulationDeadlock = SimulationDiverged


def _port_class(opclass: OpClass) -> int:
    """Map an op class onto one of the three port pools: int, fp, mem."""
    if opclass in (OpClass.LOAD, OpClass.STORE):
        return 2
    if opclass is OpClass.FP:
        return 1
    return 0


# Tabulated once: OpClass value -> (port pool, base latency).  Keyed by the
# enum's string value rather than the member itself: ``Enum.__hash__`` is a
# Python-level call, while a str's hash is computed once and cached, so the
# per-instruction precompute lookup stays on the C fast path.
_PORT_AND_LATENCY = {
    opclass._value_: (_port_class(opclass), BASE_LATENCY[opclass])
    for opclass in OpClass
}


def _latency_plane(config, trace, base_lat):
    """Per-cluster execution-latency columns for one trace.

    Clusters without latency overrides alias the shared ``base_lat`` list
    (zero extra memory on uniform machines); clusters that override an op
    class get a derived column.  Identical override tuples share a column.
    """
    clusters = config.clusters
    if all(not entry.latency_overrides for entry in clusters):
        return [base_lat] * len(clusters)
    total = len(trace)
    derived: dict[tuple, list[int]] = {}
    plane = []
    for entry in clusters:
        overrides = entry.latency_overrides
        if not overrides:
            plane.append(base_lat)
            continue
        column = derived.get(overrides)
        if column is None:
            over = dict(overrides)
            column = [
                over.get(trace[i].opclass._value_, base_lat[i])
                for i in range(total)
            ]
            derived[overrides] = column
        plane.append(column)
    return plane


class ClusteredSimulator:
    """Runs one dynamic trace through a configured machine."""

    # Queue implementation, overridable so tests can inject a checking
    # subclass that asserts the wakeup invariants during real runs.
    queue_factory = ClusterWakeupQueue

    def __init__(
        self,
        config: MachineConfig,
        steering: SteeringPolicy | None = None,
        scheduler: SchedulingPolicy | None = None,
        predictors: PredictorSuiteLike | None = None,
        trainer: TrainerLike | None = None,
        collect_ilp: bool = False,
        max_cycles: int | None = None,
        telemetry: TelemetryLike | None = None,
    ):
        self.config = config
        self.steering = steering or DependenceSteering()
        self.scheduler = scheduler or OldestFirstScheduler()
        self.predictors = predictors
        self.trainer = trainer
        self.collect_ilp = collect_ilp
        self.max_cycles = max_cycles
        self.telemetry = telemetry

        # MachineView attributes for the steering policy.
        self.num_clusters = config.num_clusters
        self.forwarding_latency = config.forwarding_latency
        self.now = 0
        self._pressure_tracking = True
        # Per-cluster geometry, indexed by cluster id.  ``_window_size``
        # stays a scalar on uniform machines (the steering fast paths
        # cache it); heterogeneous machines expose ``None`` there, which
        # sends policies down their method-call path.
        self._window_sizes = [entry.window_size for entry in config.clusters]
        self._window_size = (
            self._window_sizes[0] if config.is_uniform else None
        )

    # ------------------------------------------------------------------
    # MachineView protocol
    # ------------------------------------------------------------------
    def window_free(self, cluster: int) -> int:
        """Free scheduling-window entries at ``cluster``."""
        return self._window_sizes[cluster] - self._occupancy[cluster]

    def ports_for(self, cluster: int, opclass: OpClass) -> int:
        """Issue ports at ``cluster`` usable by ``opclass`` (0 = cannot run)."""
        return self.config.clusters[cluster].ports_for(opclass)

    def cluster_latency(self, cluster: int, opclass: OpClass) -> int:
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

        Memoized per (cluster, cycle, horizon), stamped by the cluster
        queue's mutation counter: repeated steering queries within one
        dispatch burst cost O(1) instead of rescanning the wakeup heap.
        The memo is only live when the steering policy declares
        ``uses_ready_pressure`` (the hot loop then maintains the mutation
        counters); any other caller gets a fresh, always-correct count.
        """
        queue = self._queues[cluster]
        if not self._pressure_tracking:
            return queue.pressure(self.now, horizon)
        stamp = (self.now, queue.version)
        memo_key = (cluster, horizon)
        hit = self._pressure_memo.get(memo_key)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        count = queue.pressure(self.now, horizon)
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
        steering = self.steering
        steering.reset()

        records = [InFlight(instr, deps) for instr, deps in zip(trace, dependences)]
        self._records = records
        total = len(records)
        # Per-cycle global-bypass usage (only tracked for finite bandwidth).
        self._transfer_used: dict[int, int] = {}
        occupancy = [0] * num_clusters
        self._occupancy = occupancy
        last_issued = [-1] * num_clusters
        self._last_issued = last_issued
        queues = [self.queue_factory() for __ in range(num_clusters)]
        self._queues = queues
        # The queues' heap lists are stable objects (mutated in place), so
        # the hot loop binds them directly instead of hopping through the
        # queue objects every cluster every cycle.
        wakeup_lists = [q.wakeup for q in queues]
        ready_lists = [q.ready for q in queues]
        self._wakeup_lists = wakeup_lists
        self._pressure_memo: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
        # Mutation counters only matter to the ready-pressure memo; skip
        # their upkeep for policies that never query pressure.
        pressure_tracking = getattr(steering, "uses_ready_pressure", True)
        self._pressure_tracking = pressure_tracking

        # Per-trace precomputation: port class, base latency and dependence
        # adjacency, tabulated once instead of per dispatch/issue.
        pclass = [0] * total
        base_lat = [0] * total
        port_and_latency = _PORT_AND_LATENCY
        for i, instr in enumerate(trace):
            pclass[i], base_lat[i] = port_and_latency[instr.opclass._value_]
        # Per-cluster latency plane: clusters without overrides share the
        # base column, so uniform machines pay nothing beyond one index.
        lat_plane = _latency_plane(config, trace, base_lat)
        adjacency = [deps.all_deps for deps in dependences]
        # Scheduling priority of each instruction, computed once at dispatch.
        prio: list[tuple | None] = [None] * total
        self._prio = prio

        frontend = FrontEndModel(trace, mispredicted, config.frontend)
        memory = MemoryHierarchy(config.memory)
        ilp = IlpProfile() if self.collect_ilp else None

        # Invariant config and collaborator lookups, hoisted out of the loop.
        priority_key = self.scheduler.priority_key
        l1_hit = config.memory.l1.hit_latency
        clusters_cfg = config.clusters
        issue_widths = [entry.issue_width for entry in clusters_cfg]
        port_limits = [
            (entry.int_ports, entry.fp_ports, entry.mem_ports)
            for entry in clusters_cfg
        ]
        # Eligible clusters per port pool, only materialized when some
        # cluster lacks a port class (FP-less / mem-less clusters): the
        # dispatch loop then redirects incapable steering targets.
        capable: list[tuple[int, ...]] | None = None
        if any(limits[1] == 0 or limits[2] == 0 for limits in port_limits):
            capable = [
                tuple(c for c in range(num_clusters) if port_limits[c][pool] > 0)
                for pool in range(3)
            ]
        commit_width = config.commit_width
        dispatch_width = config.dispatch_width
        rob_size = config.rob_size
        predictors = self.predictors
        if predictors is not None:
            predict_critical = predictors.predict_critical
            predictor_loc = predictors.loc
        trainer = self.trainer
        steering_on_commit = (
            steering.on_commit
            if getattr(steering, "wants_commit_events", True)
            else None
        )
        # With no trainer attached the predictors are frozen, so per-PC
        # predictions -- and therefore scheduling priorities, which depend
        # only on the prediction fields and the trace index -- are
        # constants of the run.  Tabulate them up front (one predictor
        # query per unique PC instead of one per dynamic instruction) and
        # let dispatch read the priority array instead of recomputing.
        frozen_priorities = trainer is None
        if frozen_priorities:
            if predictors is not None:
                by_pc: dict[int, tuple[bool, float]] = {}
                by_pc_get = by_pc.get
                for index in range(total):
                    pc = trace[index].pc
                    hit = by_pc_get(pc)
                    if hit is None:
                        hit = by_pc[pc] = (predict_critical(pc), predictor_loc(pc))
                    rec = records[index]
                    rec.predicted_critical, rec.loc = hit
                    prio[index] = priority_key(rec)
            else:
                for index in range(total):
                    prio[index] = priority_key(records[index])

        load_latency = memory.load_latency
        store_access = memory.store_access
        resolve_misprediction = frontend.resolve_misprediction
        frontend_tick = frontend.tick
        fetch_buffer = frontend._buffer
        fetch_pop = fetch_buffer.popleft
        redirect_sources = frontend._redirect_sources
        next_fetch_time = frontend.next_fetch_time
        wake_consumers = self._wake_consumers
        remote_arrival = self._remote_arrival
        completion = CommitReason.COMPLETION
        commit_order = CommitReason.COMMIT_ORDER
        load_class = OpClass.LOAD
        cluster_range = range(num_clusters)

        # Telemetry sampling: with a sink attached, snapshot live state
        # every ``interval`` cycles; without one, ``next_sample`` is a
        # sentinel no run reaches and the branch below never fires.
        telemetry = self.telemetry
        if telemetry is not None and telemetry.interval > 0:
            telemetry_sample = telemetry.sample
            sample_interval = telemetry.interval
            next_sample = 0
        else:
            telemetry_sample = None
            sample_interval = 0
            next_sample = _NO_SAMPLE

        global_values = 0
        rob_count = 0
        commit_ptr = 0
        now = 0
        ports_used = [0, 0, 0]
        # Cause of the current head-of-dispatch block, if any.
        head_block: tuple[DispatchReason, int | None] | None = None
        deadlock_limit = self.max_cycles

        while commit_ptr < total:
            self.now = now
            if now >= next_sample:
                # Read-only snapshot of per-cluster live state; the idle
                # skip can jump past a nominal boundary, in which case the
                # sample lands on the next executed cycle.
                telemetry_sample(now, occupancy, queues)
                next_sample = now - now % sample_interval + sample_interval

            # ---- commit phase -------------------------------------------
            committed = 0
            while committed < commit_width:
                rec = records[commit_ptr]
                complete = rec.complete_time
                if complete < 0 or complete + 1 > now:
                    break
                rec.commit_time = now
                rec.commit_reason = completion if complete + 1 == now else commit_order
                rob_count -= 1
                commit_ptr += 1
                committed += 1
                if trainer is not None:
                    trainer.on_commit(rec)
                if steering_on_commit is not None:
                    steering_on_commit(rec)
                if commit_ptr >= total:
                    break
            if commit_ptr >= total:
                break

            # ---- issue phase --------------------------------------------
            available_this_cycle = 0
            issued_this_cycle = 0
            for cluster in cluster_range:
                wakeup_heap = wakeup_lists[cluster]
                pool = ready_lists[cluster]
                if wakeup_heap and wakeup_heap[0][0] <= now:
                    # Inlined ClusterWakeupQueue.drain (the version bump
                    # is unnecessary: moving a due entry from the wakeup
                    # heap to the ready pool leaves the pressure count
                    # unchanged, and the pop bump below covers the pops).
                    while wakeup_heap and wakeup_heap[0][0] <= now:
                        heappush(pool, heappop(wakeup_heap)[2])
                if not pool:
                    continue
                if ilp is not None:
                    available_this_cycle += len(pool)
                if pressure_tracking:
                    queues[cluster].version += 1  # the pops mutate the pool
                issued = 0
                ports_used[0] = ports_used[1] = ports_used[2] = 0
                blocked = None
                issue_width = issue_widths[cluster]
                limits = port_limits[cluster]
                base_lat_c = lat_plane[cluster]
                while pool and issued < issue_width:
                    entry = heappop(pool)
                    rec = entry[1]
                    index = rec.index
                    port = pclass[index]
                    if ports_used[port] >= limits[port]:
                        if blocked is None:
                            blocked = [entry]
                        else:
                            blocked.append(entry)
                        continue
                    ports_used[port] += 1
                    issued += 1
                    # Begin execution of ``rec`` at cycle ``now``.
                    rec.issue_time = now
                    latency = base_lat_c[index]
                    if port == 2:
                        instr = rec.instr
                        if instr.opclass is load_class:
                            access = load_latency(instr.mem_addr)
                            latency += access
                            extra = access - l1_hit
                            if extra > 0:
                                rec.mem_latency_extra = extra
                        else:
                            store_access(instr.mem_addr)
                    rec.latency = latency
                    complete = now + latency
                    rec.complete_time = complete
                    if index in mispredicted:
                        resolve_misprediction(index, complete)
                    occupancy[cluster] -= 1
                    last_issued[cluster] = index
                    if rec.waiters:
                        global_values += wake_consumers(rec, fwd)
                if blocked is not None:
                    for entry in blocked:
                        heappush(pool, entry)
                issued_this_cycle += issued
            if ilp is not None:
                ilp.record(available_this_cycle, issued_this_cycle)

            # ---- fetch phase --------------------------------------------
            # Inlined tick() early-out: skip the call while fetch is
            # blocked on a branch or the pipeline is still refilling.
            if frontend._blocked_on is None and frontend._unblock_time <= now:
                fetched = frontend_tick(now)
            else:
                fetched = 0

            # ---- dispatch/steer phase -----------------------------------
            dispatched = 0
            stall_guard = None
            while dispatched < dispatch_width:
                if not fetch_buffer:
                    # Inlined ``not frontend.exhausted`` (the buffer is
                    # already known to be empty here, so exhaustion is
                    # just the cursor reaching the end of the trace).
                    blocked_on = frontend._blocked_on
                    if blocked_on is not None and frontend._cursor < total:
                        head_block = (DispatchReason.FETCH_REDIRECT, blocked_on)
                    break
                head = fetch_buffer[0]
                index = head.index
                rec = records[index]
                if rob_count >= rob_size:
                    head_block = (DispatchReason.ROB_FULL, index - rob_size)
                    break
                if not frozen_priorities and predictors is not None:
                    pc = head.pc
                    rec.predicted_critical = predict_critical(pc)
                    rec.loc = predictor_loc(pc)
                decision = steering.choose(rec, self)
                cluster = decision.cluster
                if capable is not None and cluster is not None:
                    pool_c = pclass[index]
                    if port_limits[cluster][pool_c] == 0:
                        # The steered cluster can never execute this op
                        # class (zero ports in its pool); redirect to the
                        # least-loaded capable cluster or stall.
                        decision = capability_redirect(self, capable[pool_c])
                        cluster = decision.cluster
                if cluster is None:
                    blocking = decision.blocking_cluster
                    pred = last_issued[blocking] if blocking is not None else None
                    head_block = (decision.stall_reason, pred)
                    # A stalled steering decision can flip with the passage
                    # of time alone: a completed producer leaves the
                    # policy's in-flight set once its value is visible
                    # everywhere (complete + fwd < now + 1).  Record the
                    # earliest such expiry so idle-cycle skipping never
                    # jumps past the cycle where the reference loop would
                    # have re-evaluated this stall differently.
                    for dep in rec.deps.reg_deps:
                        complete = records[dep].complete_time
                        if complete >= 0:
                            expiry = complete + fwd
                            if expiry > now and (
                                stall_guard is None or expiry < stall_guard
                            ):
                                stall_guard = expiry
                    break

                fetch_pop()
                rec.cluster = cluster
                rec.steer_cause = decision.cause
                rec.dispatch_time = now
                if head_block is not None:
                    self._set_dispatch_reason(rec, head_block, frontend)
                    head_block = None
                else:
                    # Inlined common case of _set_dispatch_reason.
                    redirect = redirect_sources.get(index)
                    if redirect is not None:
                        rec.dispatch_reason = DispatchReason.FETCH_REDIRECT
                        rec.dispatch_pred = redirect
                    elif index:
                        rec.dispatch_reason = DispatchReason.FETCH_BANDWIDTH
                        rec.dispatch_pred = index - 1
                    else:
                        rec.dispatch_reason = DispatchReason.START
                        rec.dispatch_pred = None
                occupancy[cluster] += 1
                rob_count += 1
                if frozen_priorities:
                    priority = prio[index]
                else:
                    priority = priority_key(rec)
                    prio[index] = priority
                # Inlined _wire_dependences: connect to producers, count
                # new cross-cluster transfers, schedule the wakeup if all
                # operands are already timed.
                pending = 0
                deps_tuple = adjacency[index]
                if deps_tuple:
                    mem_dep = rec.deps.mem_dep
                    for dep in deps_tuple:
                        producer = records[dep]
                        if producer.issue_time < 0:
                            producer.waiters.append(rec)
                            pending += 1
                            continue
                        crossed = producer.cluster != cluster and dep != mem_dep
                        if crossed:
                            arrival, new = remote_arrival(producer, cluster, fwd)
                            global_values += new
                        else:
                            arrival = producer.complete_time
                        if arrival >= rec.operand_avail:
                            rec.operand_avail = arrival
                            rec.last_arriving_producer = dep
                            rec.critical_operand_forwarded = crossed
                rec.pending_deps = pending
                if pending == 0:
                    ready_time = now + 1
                    if rec.operand_avail > ready_time:
                        ready_time = rec.operand_avail
                    rec.ready_time = ready_time
                    if ready_time == now + 1 and not pressure_tracking:
                        # Issue for this cycle already ran, so an
                        # already-timed instruction can enter the ready
                        # heap directly and skip the wakeup round-trip.
                        # (With pressure tracking the wakeup heap is the
                        # horizon the pressure count scans, so the entry
                        # must pass through it.)
                        heappush(ready_lists[cluster], (priority, rec))
                    else:
                        heappush(
                            wakeup_lists[cluster],
                            (ready_time, index, (priority, rec)),
                        )
                        if pressure_tracking:
                            queues[cluster].version += 1
                dispatched += 1

            now += 1
            # ---- idle-cycle skipping ------------------------------------
            # A cycle that committed, issued, fetched and dispatched nothing
            # left the machine state bit-identical to its start (stalled
            # steering/predictor queries are idempotent), so every following
            # cycle repeats it verbatim until the next event: the earliest
            # wakeup, the head of the ROB completing, or the front end
            # becoming able to fetch again.  Jump the clock straight there.
            # (Zero issues imply every ready pool is empty: the first entry
            # popped from a non-empty pool always finds a free port.)
            if not (committed or issued_this_cycle or fetched or dispatched):
                head_complete = records[commit_ptr].complete_time
                next_event = head_complete + 1 if head_complete >= 0 else None
                for wakeup_heap in wakeup_lists:
                    if wakeup_heap:
                        ready_time = wakeup_heap[0][0]
                        if next_event is None or ready_time < next_event:
                            next_event = ready_time
                fetch_time = next_fetch_time()
                if fetch_time is not None and (
                    next_event is None or fetch_time < next_event
                ):
                    next_event = fetch_time
                if stall_guard is not None and (
                    next_event is None or stall_guard < next_event
                ):
                    next_event = stall_guard
                if next_event is not None and next_event > now:
                    if ilp is not None:
                        ilp.record_idle(next_event - now)
                    now = next_event
            if deadlock_limit is not None and now > deadlock_limit:
                raise SimulationDiverged(deadlock_limit, commit_ptr, total)

        if trainer is not None:
            trainer.finish()
        # Drops the policy's view of this machine: a finished run is
        # freed by reference counting, not by the cyclic collector.
        steering.reset()
        return SimulationResult(
            config=config,
            records=records,
            cycles=records[-1].commit_time + 1,
            mispredicted=mispredicted,
            global_values=global_values,
            l1_hits=memory.l1.hits,
            l1_misses=memory.l1.misses,
            ilp_profile=ilp,
            steering_name=steering.name,
            scheduler_name=self.scheduler.name,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _wake_consumers(self, producer: InFlight, fwd: int) -> int:
        """Notify dispatched consumers that ``producer``'s result is timed.

        Returns the number of new cross-cluster value transfers.
        """
        transfers = 0
        complete = producer.complete_time
        producer_index = producer.index
        producer_cluster = producer.cluster
        queues = self._queues
        wakeup_lists = self._wakeup_lists
        pressure_tracking = self._pressure_tracking
        prio = self._prio
        for waiter in producer.waiters:
            cluster = waiter.cluster
            crossed = cluster != producer_cluster and (
                waiter.deps.mem_dep != producer_index
            )
            if crossed:
                arrival, new = self._remote_arrival(producer, cluster, fwd)
                transfers += new
            else:
                arrival = complete
            if arrival >= waiter.operand_avail:
                waiter.operand_avail = arrival
                waiter.last_arriving_producer = producer_index
                waiter.critical_operand_forwarded = crossed
            pending = waiter.pending_deps - 1
            waiter.pending_deps = pending
            if pending == 0:
                ready_time = waiter.dispatch_time + 1
                if waiter.operand_avail > ready_time:
                    ready_time = waiter.operand_avail
                waiter.ready_time = ready_time
                index = waiter.index
                heappush(
                    wakeup_lists[cluster],
                    (ready_time, index, (prio[index], waiter)),
                )
                if pressure_tracking:
                    queues[cluster].version += 1
        producer.waiters = []
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
