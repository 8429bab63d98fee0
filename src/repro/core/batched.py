"""Batched sweep backend: one trace decode, many grid points, SoA state.

A Figure 14-style sweep runs the *same* kernel trace under many
(policy, cluster-count) combinations.  The event-driven
:class:`~repro.core.simulator.ClusteredSimulator` re-derives everything
per run: it allocates ~N :class:`~repro.core.instruction.InFlight`
objects, re-tabulates port classes and latencies, and pays a Python
attribute access for every field touch of the hot loop.  This module is
the third simulation backend ("batched"): it precomputes the
trace-dependent tables **once** per kernel (:class:`TracePrecompute`)
and runs each grid point over flat structure-of-arrays columns -- plain
Python lists indexed by trace position -- with the steering, scheduling
and predictor-training logic of the supported policy stacks inlined into
the cycle loop.

The contract is **bit-identity** with the event backend: every
per-instruction timestamp, provenance enum and counter matches
:func:`repro.core.serialize.results_identical` exactly, on every
supported (trace, config, policy) combination.  This holds by
construction:

* the cycle loop mirrors the event simulator phase-for-phase (commit,
  issue, fetch, dispatch/steer, idle-skip), including the stall-guard
  and the head-of-dispatch block bookkeeping;
* heap entries carry ``(priority, index)`` / ``(ready_time, index, ...)``
  tuples whose priority components are exactly the event backend's
  (priority tuples end in the unique trace index, so ordering never
  falls through to a record comparison in either backend);
* the inlined steering replicates :class:`~repro.core.steering.
  dependence.DependenceSteering` / ``CriticalitySteering`` decision for
  decision (producer visibility window, ranking keys, proactive
  balance rules, stall-over-steer) and the inlined predictors replicate
  the saturating / probabilistic counters update-for-update, including
  the per-PC seeded RNG streams;
* the chunked trainer takes its critical sets from
  :func:`~repro.criticality.critical_path.walk_columns`, the column form
  of the event trainer's walk, over the run's live columns.

Supported fast-path stacks: dependence or criticality steering (any
configuration) with the oldest/critical/loc schedulers and the
``chunked`` predictor, i.e. all five of the paper's Figure 14 stacks.
Readiness-aware steering, the token predictor and metrics runs are not
ported; the execution layer (:mod:`repro.experiments.batch`) falls back
to the event backend for those, which is bit-identical anyway.

The differential armor lives in ``tests/test_differential.py`` (batched
vs event matrix) and ``tests/test_batched.py`` (grid-order/partition
invariance, shared-precompute isolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from repro.core.config import MachineConfig
from repro.core.instruction import CommitReason, DispatchReason, SteerCause
from repro.core.rename import Dependences, extract_dependences
from repro.core.results import IlpProfile, RunColumns, SimulationResult
from repro.core.simulator import _PORT_AND_LATENCY, SimulationDiverged
from repro.criticality.critical_path import walk_columns
from repro.frontend.branch_predictor import (
    GshareBranchPredictor,
    annotate_mispredictions,
)
from repro.memory.cache import MemoryHierarchy
from repro.util.rng import seeded_rng
from repro.vm.isa import OpClass
from repro.vm.trace import DynamicInstruction

_LOAD_CLASS = OpClass.LOAD

__all__ = [
    "ArrayPredictorState",
    "BatchedPolicy",
    "TracePrecompute",
    "simulate_batched",
]


class TracePrecompute:
    """Configuration-independent tables shared by every run of one trace.

    Everything here is immutable with respect to simulation: runs index
    these tables but never write them, so one precompute can back any
    number of grid points (and is safe to share across warm-up and
    measured runs).  The isolation tests mutate-and-check this property.
    """

    __slots__ = (
        "trace",
        "dependences",
        "mispredicted",
        "total",
        "pclass",
        "base_lat",
        "adjacency",
        "reg_deps",
        "mem_dep",
        "pcs",
        "pc_id",
        "unique_pcs",
        "is_misp",
        "is_load",
        "mem_addr",
        "is_taken_branch",
        "redirect_col",
        "fetch_stop_misp",
        "fetch_stop_taken",
        "_lat_columns",
    )

    def __init__(
        self,
        trace: Sequence[DynamicInstruction],
        dependences: Sequence[Dependences] | None = None,
        mispredicted: frozenset[int] | None = None,
    ):
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        if dependences is None:
            dependences = tuple(extract_dependences(trace))
        if mispredicted is None:
            mispredicted = frozenset(
                annotate_mispredictions(trace, GshareBranchPredictor())
            )
        total = len(trace)
        self.trace = trace
        self.dependences = dependences
        self.mispredicted = mispredicted
        self.total = total
        pclass = [0] * total
        base_lat = [0] * total
        port_and_latency = _PORT_AND_LATENCY
        for i, instr in enumerate(trace):
            pclass[i], base_lat[i] = port_and_latency[instr.opclass._value_]
        self.pclass = pclass
        self.base_lat = base_lat
        self.adjacency = [deps.all_deps for deps in dependences]
        self.reg_deps = [deps.reg_deps for deps in dependences]
        self.mem_dep = [deps.mem_dep for deps in dependences]
        pcs = [instr.pc for instr in trace]
        self.pcs = pcs
        # Dense PC ids: predictor state lives in flat arrays indexed by
        # id instead of dicts keyed by pc.
        pc_to_id: dict[int, int] = {}
        unique_pcs: list[int] = []
        pc_id = [0] * total
        for i, pc in enumerate(pcs):
            pid = pc_to_id.get(pc)
            if pid is None:
                pid = pc_to_id[pc] = len(unique_pcs)
                unique_pcs.append(pc)
            pc_id[i] = pid
        self.pc_id = pc_id
        self.unique_pcs = unique_pcs
        is_misp = [False] * total
        for index in mispredicted:
            if 0 <= index < total:
                is_misp[index] = True
        self.is_misp = is_misp
        self.is_load = [False] * total
        self.mem_addr = [0] * total
        self.is_taken_branch = [False] * total
        for i, instr in enumerate(trace):
            if pclass[i] == 2:
                self.is_load[i] = instr.opclass is _LOAD_CLASS
                self.mem_addr[i] = instr.mem_addr
            if instr.is_branch and instr.taken:
                self.is_taken_branch[i] = True
        # Fetch resumes at ``i + 1`` right after mispredicted branch ``i``
        # resolves, so redirect provenance is a static property of the
        # trace (the event front end records the same pairs dynamically).
        # Column form (-1 = no redirect) for the dispatch hot path.
        redirect_col = [-1] * total
        for i in mispredicted:
            if 0 <= i and i + 1 < total:
                redirect_col[i + 1] = i
        self.redirect_col = redirect_col
        # Next fetch-stop position at or after i, so a fetch burst is
        # O(1) instead of a per-instruction scan: one table for fronts
        # that stop only on mispredictions, one for fronts that also
        # break on taken branches (config selects at run setup).
        stop_misp = [total] * total
        stop_taken = [total] * total
        nxt_m = nxt_t = total
        for i in range(total - 1, -1, -1):
            if is_misp[i]:
                nxt_m = i
                nxt_t = i
            elif self.is_taken_branch[i]:
                nxt_t = i
            stop_misp[i] = nxt_m
            stop_taken[i] = nxt_t
        self.fetch_stop_misp = stop_misp
        self.fetch_stop_taken = stop_taken
        # Memoized per-cluster latency columns, keyed by a ClusterConfig's
        # normalized ``latency_overrides`` tuple.  Columns are written once
        # at creation and only read afterwards, so sharing one precompute
        # across grid points stays sound.
        self._lat_columns: dict[tuple, list[int]] = {}

    def latency_column(self, overrides: tuple) -> list[int]:
        """The base-latency column with ``overrides`` applied (memoized).

        ``overrides`` is a :class:`~repro.core.config.ClusterConfig`'s
        normalized ``latency_overrides`` tuple; the empty tuple aliases the
        shared ``base_lat`` column.
        """
        if not overrides:
            return self.base_lat
        cached = self._lat_columns.get(overrides)
        if cached is None:
            over = dict(overrides)
            base = self.base_lat
            cached = self._lat_columns[overrides] = [
                over.get(instr.opclass._value_, base[i])
                for i, instr in enumerate(self.trace)
            ]
        return cached

    @classmethod
    def from_prepared(cls, prepared) -> "TracePrecompute":
        """Build from a :class:`~repro.experiments.parallel.PreparedWorkload`."""
        return cls(prepared.trace, prepared.dependences, prepared.mispredicted)


@dataclass(frozen=True)
class BatchedPolicy:
    """A policy stack lowered to the flags the inlined fast path branches on.

    Produced from a :class:`~repro.specs.PolicySpec` by
    :func:`repro.experiments.batch.fast_policy`; ``None`` from that
    function means the stack is outside the fast path.
    """

    steering_kind: str  # "dependence" | "criticality"
    preference: str = "binary"  # producer ranking: "binary" | "loc"
    stall_over_steer: bool = False
    stall_loc_threshold: float = 0.30
    proactive: bool = False
    keep_min_loc: float = 0.05
    keep_fraction: float = 0.5
    scheduler: str = "oldest"  # "oldest" | "critical" | "loc"
    needs_predictors: bool = False
    chunk_size: int = 2048

    @property
    def steering_name(self) -> str:
        """The name the equivalent steering policy object reports."""
        if self.steering_kind == "dependence":
            return "dependence"
        parts = ["focused" if self.preference == "binary" else "loc"]
        if self.stall_over_steer:
            parts.append("stall")
        if self.proactive:
            parts.append("proactive")
        return "+".join(parts)


class ArrayPredictorState:
    """The predictor suite's counters, hoisted into pc-id-indexed arrays.

    Replicates :class:`~repro.criticality.loc.PredictorSuite` with the
    default binary predictor (6-bit, +8/-1, threshold 8) and a 16-level
    LoC predictor in any of the three storage modes.  Training and
    queries are update-for-update identical, including the per-PC
    ``seeded_rng("loc", seed, pc)`` draw sequences of the probabilistic
    mode (streams are per-PC, so lazy creation order is immaterial).
    """

    __slots__ = (
        "mode",
        "seed",
        "unique_pcs",
        "bin_val",
        "loc_level",
        "loc_hits",
        "loc_total",
        "rngs",
    )

    def __init__(self, pre: TracePrecompute, loc_mode: str, seed: int):
        if loc_mode not in ("probabilistic", "stratified", "exact"):
            raise ValueError(f"unknown LoC mode {loc_mode!r}")
        self.mode = loc_mode
        self.seed = seed
        self.unique_pcs = pre.unique_pcs
        n = len(pre.unique_pcs)
        self.bin_val = [0] * n
        self.loc_level = [0] * n
        self.loc_hits = [0] * n
        self.loc_total = [0] * n
        # Per-PC RNG streams, created on first draw (creation consumes no
        # randomness, so laziness cannot perturb the sequences).
        self.rngs: list = [None] * n

    # The two dispatch-time queries, as pure functions of counter state
    # (the event backend memoizes these per PC; memos are caches only).
    def predict_critical(self, pid: int) -> bool:
        return self.bin_val[pid] >= 8

    def loc(self, pid: int) -> float:
        mode = self.mode
        if mode == "probabilistic":
            return self.loc_level[pid] / 15
        total = self.loc_total[pid]
        if not total:
            return 0.0
        if mode == "exact":
            return self.loc_hits[pid] / total
        return round((self.loc_hits[pid] / total) * 15) / 15

    def train(self, pid: int, outcome: bool) -> None:
        """One training event for ``pid`` (both predictors, like the suite)."""
        v = self.bin_val[pid]
        if outcome:
            self.bin_val[pid] = v + 8 if v < 56 else 63
        elif v:
            self.bin_val[pid] = v - 1
        if self.mode == "probabilistic":
            level = self.loc_level[pid]
            estimate = level / 15
            if outcome:
                move = 1.0 - estimate
                if move > 0:
                    rng = self.rngs[pid]
                    if rng is None:
                        rng = self.rngs[pid] = seeded_rng(
                            "loc", self.seed, self.unique_pcs[pid]
                        )
                    if rng.random() < move:
                        self.loc_level[pid] = level + 1
            elif estimate > 0:
                rng = self.rngs[pid]
                if rng is None:
                    rng = self.rngs[pid] = seeded_rng(
                        "loc", self.seed, self.unique_pcs[pid]
                    )
                if rng.random() < estimate:
                    self.loc_level[pid] = level - 1
        else:
            self.loc_total[pid] += 1
            if outcome:
                self.loc_hits[pid] += 1


def simulate_batched(
    pre: TracePrecompute,
    config: MachineConfig,
    policy: BatchedPolicy,
    predictors: ArrayPredictorState | None = None,
    live_training: bool = True,
    collect_ilp: bool = False,
    max_cycles: int | None = None,
    frozen_cache: dict | None = None,
) -> SimulationResult:
    """One grid point over the shared precompute; SoA port of the event loop.

    ``predictors`` carries the warm state across the warm-up/measured
    pair exactly like a :class:`~repro.criticality.loc.PredictorSuite`
    does for the event backend; ``live_training=False`` freezes it (the
    benchmark methodology).  The result holds the run's columns
    (:class:`~repro.core.results.RunColumns`); its
    :class:`~repro.core.instruction.InFlight` records are built only if
    a caller reads ``result.records``.

    ``frozen_cache`` (frozen runs only) memoizes the per-run constants a
    frozen predictor suite induces -- the sampled prediction/LoC columns
    and the scheduler priority table -- so a sweep of grid points over
    one frozen suite tabulates them once.  The caller owns the dict and
    MUST NOT share it across different suites or training states; the
    cached lists are never written after creation, which the isolation
    tests assert.

    All other per-run state is freshly allocated here; nothing is
    written to ``pre`` or retained between calls, so any sequence of
    calls over one precompute is independent (the isolation property the
    batched executor and its tests rely on).
    """
    total = pre.total
    trace = pre.trace
    num_clusters = config.num_clusters
    fwd = config.forwarding_latency
    bandwidth = config.forwarding_bandwidth

    # --- SoA columns (the InFlight slots, one flat list per field) ----
    cluster_col = [-1] * total
    dispatch_t = [-1] * total
    ready_t = [-1] * total
    issue_t = [-1] * total
    complete_t = [-1] * total
    commit_t = [-1] * total
    pending_col = [0] * total
    op_avail = [0] * total
    last_arr: list[int | None] = [None] * total
    crit_fwd = [False] * total
    mem_extra = [0] * total
    # Pre-filled with base latencies: only loads rewrite their cell, and
    # diverged runs raise before returning, so unissued cells are
    # never observed.
    latency_col = list(pre.base_lat)
    pred_col = [False] * total
    loc_col = [0.0] * total
    dreason_col = [DispatchReason.START] * total
    dpred_col: list[int | None] = [None] * total
    scause_col = [SteerCause.NO_PRODUCER] * total
    creason_col = [CommitReason.COMPLETION] * total
    waiters: list[list[int] | None] = [None] * total
    fwd_to: list[dict[int, int] | None] = [None] * total
    prio: list[tuple | None] = [None] * total

    # --- precomputed trace tables (read-only) -------------------------
    pclass = pre.pclass
    base_lat = pre.base_lat
    adjacency = pre.adjacency
    reg_deps = pre.reg_deps
    mem_dep = pre.mem_dep
    pcs = pre.pcs
    pc_id = pre.pc_id
    is_misp = pre.is_misp

    # --- per-run machine state ----------------------------------------
    occupancy = [0] * num_clusters
    last_issued = [-1] * num_clusters
    wakeup_lists: list[list] = [[] for __ in range(num_clusters)]
    ready_lists: list[list] = [[] for __ in range(num_clusters)]
    transfer_used: dict[int, int] = {}
    memory = MemoryHierarchy(config.memory)
    ilp = IlpProfile() if collect_ilp else None

    # Inlined front end (FrontEndModel, SoA form).  Instructions enter
    # the fetch buffer in trace order and leave in trace order, so the
    # buffer is always the contiguous index range [buf_lo, cursor).
    frontend_cfg = config.frontend
    fetch_width = frontend_cfg.width
    fetch_depth = frontend_cfg.depth_to_dispatch
    fetch_buffer_size = frontend_cfg.buffer_size
    fetch_stop = (
        pre.fetch_stop_taken
        if frontend_cfg.break_on_taken_branch
        else pre.fetch_stop_misp
    )
    redirect_col = pre.redirect_col
    cursor = 0
    buf_lo = 0
    unblock_time = fetch_depth
    blocked_on = -1  # mispredicted branch fetch waits on; -1 = none

    clusters_cfg = config.clusters
    if any(c.fp_ports == 0 or c.mem_ports == 0 for c in clusters_cfg):
        # Capability redirects are not ported to this backend; the
        # execution layer keeps such configs on the event path.
        raise ValueError(
            "batched backend requires every cluster to have FP and memory "
            "ports; zero-port clusters run on the event backend"
        )
    window_sizes = [c.window_size for c in clusters_cfg]
    issue_widths = [c.issue_width for c in clusters_cfg]
    port_limits_by_cluster = [
        (c.int_ports, c.fp_ports, c.mem_ports) for c in clusters_cfg
    ]
    # Per-cluster latency plane: clusters without overrides alias the
    # shared base-latency column, so uniform machines pay nothing.
    lat_plane = [pre.latency_column(c.latency_overrides) for c in clusters_cfg]
    has_lat_overrides = any(c.latency_overrides for c in clusters_cfg)
    commit_width = config.commit_width
    dispatch_width = config.dispatch_width
    rob_size = config.rob_size
    l1_hit = config.memory.l1.hit_latency

    # --- policy flags -------------------------------------------------
    # Producer ranking: 0 = youngest-index (dependence baseline),
    # 1 = binary prediction, 2 = LoC.
    if policy.steering_kind == "dependence":
        rank_mode = 0
    elif policy.preference == "binary":
        rank_mode = 1
    else:
        rank_mode = 2
    stall_over_steer = policy.stall_over_steer
    stall_threshold = policy.stall_loc_threshold
    proactive = policy.proactive
    keep_min_loc = policy.keep_min_loc
    keep_fraction = policy.keep_fraction
    scheduler = policy.scheduler
    sched_oldest = scheduler == "oldest"
    sched_critical = scheduler == "critical"
    chunk_size = policy.chunk_size

    # Per-run steering state (CriticalitySteering.reset() equivalents).
    followed: set[int] = set()
    max_consumer_loc: dict[int, float] = {}
    balance_candidates: dict[int, int] = {}

    # Predictor sampling mode.
    frozen = predictors is None or not live_training
    suite = predictors
    if suite is not None:
        mode_prob = suite.mode == "probabilistic"
        mode_exact = suite.mode == "exact"
        bin_val = suite.bin_val
        loc_level = suite.loc_level
        loc_hits = suite.loc_hits
        loc_total = suite.loc_total
    training = suite is not None and live_training
    flush_ptr = 0  # committed-but-untrained range start (trainer buffer)

    # Frozen predictors (or none): predictions and priorities are
    # constants of the run; tabulate once per unique PC like the event
    # backend's frozen-priority precompute.  Frozen runs never write
    # these columns afterwards, so grid points sharing one frozen suite
    # may share the tabulated lists through ``frozen_cache``.
    if frozen:
        cached = None if frozen_cache is None else frozen_cache.get("pred_loc")
        if cached is not None:
            pred_col, loc_col = cached
        else:
            if suite is not None:
                by_pc: dict[int, tuple[bool, float]] = {}
                by_pc_get = by_pc.get
                suite_loc = suite.loc
                for index in range(total):
                    pid = pc_id[index]
                    hit = by_pc_get(pid)
                    if hit is None:
                        hit = by_pc[pid] = (bin_val[pid] >= 8, suite_loc(pid))
                    pred_col[index], loc_col[index] = hit
            if frozen_cache is not None:
                frozen_cache["pred_loc"] = (pred_col, loc_col)
        cached = None if frozen_cache is None else frozen_cache.get(scheduler)
        if cached is not None:
            prio = cached
        else:
            if sched_oldest:
                for index in range(total):
                    prio[index] = (index,)
            elif sched_critical:
                for index in range(total):
                    prio[index] = (0 if pred_col[index] else 1, index)
            else:
                for index in range(total):
                    prio[index] = (-loc_col[index], index)
            if frozen_cache is not None:
                frozen_cache[scheduler] = prio

    # The run's columns, handed to the result uncopied.  No column list
    # is rebound from here on, so the chunked trainer's walk reads them
    # live.
    columns = RunColumns(
        trace,
        pre.dependences,
        cluster=cluster_col,
        dispatch_time=dispatch_t,
        ready_time=ready_t,
        issue_time=issue_t,
        complete_time=complete_t,
        commit_time=commit_t,
        pending_deps=pending_col,
        operand_avail=op_avail,
        last_arriving_producer=last_arr,
        critical_operand_forwarded=crit_fwd,
        mem_latency_extra=mem_extra,
        latency=latency_col,
        predicted_critical=pred_col,
        loc=loc_col,
        dispatch_reason=dreason_col,
        dispatch_pred=dpred_col,
        steer_cause=scause_col,
        commit_reason=creason_col,
        forwarded_to_clusters=fwd_to,
    )

    # Enum locals for the hot loop.
    completion = CommitReason.COMPLETION
    commit_order = CommitReason.COMMIT_ORDER
    fetch_bw = DispatchReason.FETCH_BANDWIDTH
    fetch_redirect = DispatchReason.FETCH_REDIRECT
    rob_full = DispatchReason.ROB_FULL
    cluster_full = DispatchReason.CLUSTER_FULL
    steer_stall = DispatchReason.STEER_STALL
    no_producer = SteerCause.NO_PRODUCER
    producer_c = SteerCause.PRODUCER
    dyadic = SteerCause.DYADIC
    load_balance_full = SteerCause.LOAD_BALANCE_FULL
    proactive_c = SteerCause.PROACTIVE
    stalled_c = SteerCause.STALLED

    load_latency = memory.load_latency
    store_access = memory.store_access
    is_load = pre.is_load
    mem_addr = pre.mem_addr
    cluster_range = range(num_clusters)

    # ------------------------------------------------------------------
    def remote_arrival(p_index: int, cluster: int) -> tuple[int, int]:
        # Port of ClusteredSimulator._remote_arrival over the columns.
        fmap = fwd_to[p_index]
        if fmap is None:
            fmap = {}
            fwd_to[p_index] = fmap
        else:
            arrival = fmap.get(cluster)
            if arrival is not None:
                return arrival, 0
        departure = complete_t[p_index]
        if bandwidth is not None:
            while transfer_used.get(departure, 0) >= bandwidth:
                departure += 1
            transfer_used[departure] = transfer_used.get(departure, 0) + 1
        arrival = departure + fwd
        fmap[cluster] = arrival
        return arrival, 1

    def least_loaded() -> int:
        # least_loaded_cluster(): fewest in-flight with window space,
        # first-lowest ties; -1 when every window is full.
        best = -1
        best_load = None
        for c in cluster_range:
            load = occupancy[c]
            if load < window_sizes[c] and (best_load is None or load < best_load):
                best = c
                best_load = load
        return best

    def fullest_cluster() -> int:
        # structural_stall(): the first cluster of maximal load.
        best = 0
        best_load = occupancy[0]
        for c in range(1, num_clusters):
            load = occupancy[c]
            if load > best_load:
                best = c
                best_load = load
        return best

    def train_chunk(lo: int, hi: int) -> None:
        # ChunkedCriticalityTrainer._train_chunk: the critical set of the
        # chunk's backward walk (training never reads the breakdown).
        critical = walk_columns(columns, lo, hi).critical_indices
        # Inlined ArrayPredictorState.train over the chunk (binary
        # saturating counter and the LoC counter of the active mode).
        rngs = suite.rngs
        unique_pcs = suite.unique_pcs
        suite_seed = suite.seed
        for i in range(lo, hi):
            pid = pc_id[i]
            outcome = i in critical
            v = bin_val[pid]
            if outcome:
                bin_val[pid] = v + 8 if v < 56 else 63
            elif v:
                bin_val[pid] = v - 1
            if mode_prob:
                level = loc_level[pid]
                estimate = level / 15
                if outcome:
                    move = 1.0 - estimate
                    if move > 0:
                        rng = rngs[pid]
                        if rng is None:
                            rng = rngs[pid] = seeded_rng(
                                "loc", suite_seed, unique_pcs[pid]
                            )
                        if rng.random() < move:
                            loc_level[pid] = level + 1
                elif estimate > 0:
                    rng = rngs[pid]
                    if rng is None:
                        rng = rngs[pid] = seeded_rng(
                            "loc", suite_seed, unique_pcs[pid]
                        )
                    if rng.random() < estimate:
                        loc_level[pid] = level - 1
            else:
                loc_total[pid] += 1
                if outcome:
                    loc_hits[pid] += 1

    # ------------------------------------------------------------------
    global_values = 0
    rob_count = 0
    commit_ptr = 0
    now = 0
    ports_used = [0, 0, 0]
    head_block: tuple[DispatchReason, int | None] | None = None
    # Issue-phase fast skip: scan the clusters only when a ready pool is
    # non-empty or some wakeup heap head has matured.  ``wake_min`` is
    # maintained exactly (lowered on every wakeup push, recomputed from
    # the heap heads after every scan), so skipping never hides work and
    # the idle-skip below can use it instead of re-scanning the heaps.
    inf = float("inf")
    pools_nonempty = False
    wake_min = inf

    while commit_ptr < total:
        # ---- commit phase -------------------------------------------
        committed = 0
        head_complete = complete_t[commit_ptr]
        while 0 <= head_complete < now and committed < commit_width:
            i = commit_ptr
            complete = complete_t[i]
            if complete < 0 or complete + 1 > now:
                break
            commit_t[i] = now
            creason_col[i] = completion if complete + 1 == now else commit_order
            rob_count -= 1
            commit_ptr += 1
            committed += 1
            if training and commit_ptr - flush_ptr >= chunk_size:
                train_chunk(flush_ptr, commit_ptr)
                flush_ptr = commit_ptr
            if proactive:
                # CriticalitySteering.on_commit: retire-time learning of
                # balance candidates (2-bit counter, +1/-1, threshold 2).
                loc_i = loc_col[i]
                pc = pcs[i]
                for dep in reg_deps[i]:
                    best = max_consumer_loc.get(dep)
                    if best is None:
                        continue
                    count = balance_candidates.get(pc, 0)
                    if loc_i < best:
                        if count < 3:
                            count += 1
                    elif count > 0:
                        count -= 1
                    balance_candidates[pc] = count
                    if len(max_consumer_loc) > 65536:
                        max_consumer_loc.clear()
            if commit_ptr >= total:
                break
        if commit_ptr >= total:
            break

        # ---- issue phase --------------------------------------------
        available_this_cycle = 0
        issued_this_cycle = 0
        if pools_nonempty or wake_min <= now:
            pools_nonempty = False
            for cluster in cluster_range:
                wakeup_heap = wakeup_lists[cluster]
                pool = ready_lists[cluster]
                if wakeup_heap and wakeup_heap[0][0] <= now:
                    while wakeup_heap and wakeup_heap[0][0] <= now:
                        pool.append(heappop(wakeup_heap)[2])
                if not pool:
                    continue
                if ilp is not None:
                    available_this_cycle += len(pool)
                issued = 0
                ports_used[0] = ports_used[1] = ports_used[2] = 0
                # The pool is a plain list sorted on demand: priorities
                # are unique, so iterating the sorted list visits the
                # same sequence heappop would, at C sort speed, and
                # inserts are appends.
                pool.sort()
                blocked = None
                pos = 0
                pool_len = len(pool)
                issue_width = issue_widths[cluster]
                port_limits = port_limits_by_cluster[cluster]
                base_lat_c = lat_plane[cluster]
                while pos < pool_len and issued < issue_width:
                    entry = pool[pos]
                    pos += 1
                    index = entry[-1]
                    port = pclass[index]
                    if ports_used[port] >= port_limits[port]:
                        if blocked is None:
                            blocked = [entry]
                        else:
                            blocked.append(entry)
                        continue
                    ports_used[port] += 1
                    issued += 1
                    issue_t[index] = now
                    latency = base_lat_c[index]
                    if port == 2:
                        if is_load[index]:
                            access = load_latency(mem_addr[index])
                            latency += access
                            latency_col[index] = latency
                            extra = access - l1_hit
                            if extra > 0:
                                mem_extra[index] = extra
                        else:
                            store_access(mem_addr[index])
                            if has_lat_overrides:
                                latency_col[index] = latency
                    elif has_lat_overrides:
                        latency_col[index] = latency
                    complete = now + latency
                    complete_t[index] = complete
                    if is_misp[index] and blocked_on == index:
                        # resolve_misprediction: fetch resumes after refill.
                        blocked_on = -1
                        unblock_time = complete + fetch_depth
                    occupancy[cluster] -= 1
                    last_issued[cluster] = index
                    consumers = waiters[index]
                    if consumers:
                        # Inlined _wake_consumers.
                        for waiter in consumers:
                            w_cluster = cluster_col[waiter]
                            crossed = (
                                w_cluster != cluster and mem_dep[waiter] != index
                            )
                            if crossed:
                                arrival, new = remote_arrival(index, w_cluster)
                                global_values += new
                            else:
                                arrival = complete
                            if arrival >= op_avail[waiter]:
                                op_avail[waiter] = arrival
                                last_arr[waiter] = index
                                crit_fwd[waiter] = crossed
                            pending = pending_col[waiter] - 1
                            pending_col[waiter] = pending
                            if pending == 0:
                                ready_time = dispatch_t[waiter] + 1
                                avail = op_avail[waiter]
                                if avail > ready_time:
                                    ready_time = avail
                                ready_t[waiter] = ready_time
                                heappush(
                                    wakeup_lists[w_cluster],
                                    (ready_time, waiter, prio[waiter]),
                                )
                        waiters[index] = None
                if pos < pool_len:
                    # Entries beyond the issue-width cut stay pooled.
                    if blocked is None:
                        blocked = pool[pos:]
                    else:
                        blocked.extend(pool[pos:])
                if blocked is not None:
                    ready_lists[cluster] = blocked
                    pools_nonempty = True
                else:
                    pool.clear()
                issued_this_cycle += issued
            wake_min = inf
            for wakeup_heap in wakeup_lists:
                if wakeup_heap and wakeup_heap[0][0] < wake_min:
                    wake_min = wakeup_heap[0][0]
        if ilp is not None:
            ilp.record(available_this_cycle, issued_this_cycle)

        # ---- fetch phase (inlined FrontEndModel.tick) ----------------
        # O(1) burst: the precomputed stop table gives the first
        # misprediction / taken-branch break point; the stop
        # instruction itself is still fetched, exactly like the
        # per-instruction loop it replaces.
        fetched = 0
        if blocked_on < 0 and unblock_time <= now and cursor < total:
            width = fetch_buffer_size - (cursor - buf_lo)
            if width > fetch_width:
                width = fetch_width
            end = cursor + width
            if end > total:
                end = total
            stop = fetch_stop[cursor]
            if stop < end:
                end = stop + 1
                if is_misp[stop]:
                    blocked_on = stop
            fetched = end - cursor
            cursor = end

        # ---- dispatch/steer phase -----------------------------------
        dispatched = 0
        stall_guard = None
        while dispatched < dispatch_width:
            index = buf_lo
            if index >= cursor:
                if blocked_on >= 0 and cursor < total:
                    head_block = (fetch_redirect, blocked_on)
                break
            if rob_count >= rob_size:
                head_block = (rob_full, index - rob_size)
                break
            if not frozen:
                # Re-sample the predictors on every dispatch attempt
                # (training between attempts can change the answer).
                pid = pc_id[index]
                pred_col[index] = bin_val[pid] >= 8
                if mode_prob:
                    loc_col[index] = loc_level[pid] / 15
                else:
                    t = loc_total[pid]
                    if not t:
                        loc_col[index] = 0.0
                    elif mode_exact:
                        loc_col[index] = loc_hits[pid] / t
                    else:
                        loc_col[index] = round((loc_hits[pid] / t) * 15) / 15

            # ---- inlined steering.choose ----------------------------
            # In-flight producers: value not yet visible everywhere.
            first = -1
            producers = None
            rdeps = reg_deps[index]
            if rdeps:
                visible_before = now + 1 - fwd
                for dep in rdeps:
                    complete = complete_t[dep]
                    if complete < 0 or complete >= visible_before:
                        if first < 0:
                            first = dep
                        elif producers is None:
                            producers = [first, dep]
                        else:
                            producers.append(dep)

            stall = None  # (reason, blocking_cluster)
            cluster = -1
            if first < 0:
                # Inlined least_loaded() (the hottest steering outcome).
                best_load = None
                for c in cluster_range:
                    load = occupancy[c]
                    if load < window_sizes[c] and (
                        best_load is None or load < best_load
                    ):
                        cluster = c
                        best_load = load
                if cluster < 0:
                    stall = (cluster_full, fullest_cluster())
                else:
                    cause = no_producer
            else:
                if producers is None:
                    ranked = None
                    preferred = first
                    cause = producer_c
                else:
                    # Rank keys end in the unique producer index, so the
                    # two-producer case (the common one) needs a single
                    # comparison instead of sorted()+lambda.
                    if rank_mode == 0:
                        if len(producers) == 2:
                            a, b = producers
                            ranked = [b, a] if b > a else [a, b]
                        else:
                            ranked = sorted(producers, reverse=True)
                    elif rank_mode == 1:
                        if len(producers) == 2:
                            a, b = producers
                            if (pred_col[b], b) > (pred_col[a], a):
                                ranked = [b, a]
                            else:
                                ranked = [a, b]
                        else:
                            ranked = sorted(
                                producers,
                                key=lambda p: (pred_col[p], p),
                                reverse=True,
                            )
                    else:
                        if len(producers) == 2:
                            a, b = producers
                            if (loc_col[b], b) > (loc_col[a], a):
                                ranked = [b, a]
                            else:
                                ranked = [a, b]
                        else:
                            ranked = sorted(
                                producers,
                                key=lambda p: (loc_col[p], p),
                                reverse=True,
                            )
                    preferred = ranked[0]
                    first_cluster = cluster_col[producers[0]]
                    cause = producer_c
                    for p in producers:
                        if cluster_col[p] != first_cluster:
                            cause = dyadic
                            break
                if proactive:
                    # _note_consumer + _should_balance_away.
                    loc_i = loc_col[index]
                    if producers is None:
                        best = max_consumer_loc.get(first)
                        if best is None or loc_i > best:
                            max_consumer_loc[first] = loc_i
                    else:
                        for p in producers:
                            best = max_consumer_loc.get(p)
                            if best is None or loc_i > best:
                                max_consumer_loc[p] = loc_i
                    count = balance_candidates.get(pcs[index])
                    if count is not None and count >= 2:
                        balance = True
                    elif loc_i > keep_min_loc and loc_i >= keep_fraction * loc_col[preferred]:
                        balance = False
                    else:
                        balance = preferred in followed
                    if balance:
                        cluster = least_loaded()
                        if cluster < 0:
                            stall = (cluster_full, fullest_cluster())
                        else:
                            followed.add(preferred)
                            cause = proactive_c
                if cluster < 0 and stall is None:
                    # Try the producers' clusters in preference order.
                    if ranked is None:
                        target = cluster_col[first]
                        if occupancy[target] < window_sizes[target]:
                            if proactive:
                                followed.add(first)
                            cluster = target
                    else:
                        for p in ranked:
                            target = cluster_col[p]
                            if occupancy[target] < window_sizes[target]:
                                if proactive:
                                    followed.add(p)
                                cluster = target
                                break
                    if cluster < 0:
                        # _handle_full_desired.
                        if stall_over_steer and loc_col[index] >= stall_threshold:
                            stall = (steer_stall, cluster_col[preferred])
                        else:
                            cluster = least_loaded()
                            if cluster < 0:
                                stall = (cluster_full, fullest_cluster())
                            else:
                                cause = load_balance_full

            if stall is not None:
                reason, blocking = stall
                head_block = (reason, last_issued[blocking])
                # Stall-guard for idle skipping: the earliest producer
                # visibility expiry that could flip this decision.
                for dep in rdeps:
                    complete = complete_t[dep]
                    if complete >= 0:
                        expiry = complete + fwd
                        if expiry > now and (
                            stall_guard is None or expiry < stall_guard
                        ):
                            stall_guard = expiry
                break

            # ---- dispatch -------------------------------------------
            buf_lo += 1
            cluster_col[index] = cluster
            scause_col[index] = cause
            dispatch_t[index] = now
            if head_block is not None:
                reason, pred = head_block
                dreason_col[index] = reason
                dpred_col[index] = pred
                if reason is steer_stall:
                    scause_col[index] = stalled_c
                if pred is not None and pred < 0:
                    dreason_col[index] = fetch_bw
                    dpred_col[index] = index - 1 if index > 0 else None
                head_block = None
            else:
                redirect = redirect_col[index]
                if redirect >= 0:
                    dreason_col[index] = fetch_redirect
                    dpred_col[index] = redirect
                elif index:
                    dreason_col[index] = fetch_bw
                    dpred_col[index] = index - 1
                # else: the START/None column defaults already apply.
            occupancy[cluster] += 1
            rob_count += 1
            if frozen:
                priority = prio[index]
            else:
                if sched_oldest:
                    priority = (index,)
                elif sched_critical:
                    priority = (0 if pred_col[index] else 1, index)
                else:
                    priority = (-loc_col[index], index)
                prio[index] = priority
            # Inlined _wire_dependences.
            pending = 0
            deps_tuple = adjacency[index]
            if deps_tuple:
                mdep = mem_dep[index]
                for dep in deps_tuple:
                    if issue_t[dep] < 0:
                        w = waiters[dep]
                        if w is None:
                            waiters[dep] = [index]
                        else:
                            w.append(index)
                        pending += 1
                        continue
                    crossed = cluster_col[dep] != cluster and dep != mdep
                    if crossed:
                        arrival, new = remote_arrival(dep, cluster)
                        global_values += new
                    else:
                        arrival = complete_t[dep]
                    if arrival >= op_avail[index]:
                        op_avail[index] = arrival
                        last_arr[index] = dep
                        crit_fwd[index] = crossed
            pending_col[index] = pending
            if pending == 0:
                ready_time = now + 1
                if op_avail[index] > ready_time:
                    ready_time = op_avail[index]
                ready_t[index] = ready_time
                if ready_time == now + 1:
                    # Issue already ran this cycle; skip the wakeup
                    # round-trip (no ready-pressure tracking here).
                    ready_lists[cluster].append(priority)
                    pools_nonempty = True
                else:
                    heappush(
                        wakeup_lists[cluster], (ready_time, index, priority)
                    )
                    if ready_time < wake_min:
                        wake_min = ready_time
            dispatched += 1

        now += 1
        # ---- idle-cycle skipping ------------------------------------
        if not (committed or issued_this_cycle or fetched or dispatched):
            head_complete = complete_t[commit_ptr]
            next_event = head_complete + 1 if head_complete >= 0 else None
            # Pools are empty on idle cycles (a non-empty pool always
            # issues at least one entry), so ``wake_min`` is the exact
            # earliest wakeup.
            if wake_min != inf and (next_event is None or wake_min < next_event):
                next_event = wake_min
            # Inlined next_fetch_time(): only a future unblock can make
            # fetch progress without dispatch or execution moving first.
            if (
                blocked_on < 0
                and cursor < total
                and cursor - buf_lo < fetch_buffer_size
                and (next_event is None or unblock_time < next_event)
            ):
                next_event = unblock_time
            if stall_guard is not None and (
                next_event is None or stall_guard < next_event
            ):
                next_event = stall_guard
            if next_event is not None and next_event > now:
                if ilp is not None:
                    ilp.record_idle(next_event - now)
                now = next_event
        if max_cycles is not None and now > max_cycles:
            raise SimulationDiverged(max_cycles, commit_ptr, total)

    # Trainer.finish(): flush the trailing partial chunk.
    if training and total - flush_ptr > 1:
        train_chunk(flush_ptr, total)

    return SimulationResult(
        config=config,
        columns=columns,
        cycles=commit_t[total - 1] + 1,
        mispredicted=pre.mispredicted,
        global_values=global_values,
        l1_hits=memory.l1.hits,
        l1_misses=memory.l1.misses,
        ilp_profile=ilp,
        steering_name=policy.steering_name,
        scheduler_name=policy.scheduler,
    )
