"""Batched sweep backend and the per-process trace memo.

A Figure 14 sweep runs the *same* kernel trace through ~11 policy x
cluster-count grid points.  Trace generation, the dependence/port
precompute and criticality-predictor training do not depend on the grid
point, so this module makes each of them happen once per trace:

* the **trace memo** keeps, per process, the state of the
  :data:`TRACE_MEMO_SIZE` most recently used traces, keyed by
  :func:`batch_key`: the :class:`~repro.experiments.parallel.
  PreparedWorkload` every backend runs on (:func:`prepared_trace`) and,
  built on first use, the batched engine's
  :class:`~repro.core.batched.TracePrecompute`, the canonical warm suite
  and its frozen-priority cache.  Every job reads it, so consecutive
  jobs on one trace in one process share it however they are executed
  -- serially, in-process next to a worker pool, or on a distributed
  worker;
* :func:`fast_policy` lowers a :class:`~repro.specs.PolicySpec` to the
  flags the inlined engine branches on, or ``None`` when the stack is
  outside the fast path (readiness steering, token predictors,
  parameterized schedulers);
* :func:`execute_batched_job` runs one ``sim="batched"`` job -- the
  entry point :func:`~repro.experiments.parallel.execute_job` dispatches
  to, so retries, chaos injection, serial/parallel execution and the
  run cache all compose unchanged.

With a worker pool, the local executor still runs batched jobs in the
calling process, on its memo
(:class:`~repro.experiments.executor.LocalPoolExecutor`).

Methodology: ``warm=True`` batched runs measure with predictors
**frozen** after a single canonical training pass (the monolithic
machine under the ``l`` stack -- the same run every figure normalizes
against).  The trained state is therefore a function of
``(kernel, instructions, seed, loc_mode)`` only, which is what makes a
grid point's result independent of how a sweep is split or ordered:
running a job alone, after any other jobs, or in any permutation yields
bit-identical results and identical cache keys.  This deliberately
differs from the event backend's per-entry warm-up (each grid point
trains on its own machine/policy); the shift moves warm-run cycle
counts by well under 0.1% and is salted into the cache by the
``sim="batched"`` key field plus the ``CACHE_SCHEMA_VERSION`` bump that
landed with this backend.  ``warm=False`` runs train live from cold and
are bit-identical to the event backend's cold runs.

The engine itself is bit-identical to the event backend under *matched*
predictor state -- enforced per grid point by ``tests/test_differential
.py`` -- so the only observable difference is the warm-up methodology
above.
"""

from __future__ import annotations

import gc
import threading
from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING

from repro.core.batched import (
    ArrayPredictorState,
    BatchedPolicy,
    TracePrecompute,
    simulate_batched,
)
from repro.core.config import monolithic_machine
from repro.core.results import SimulationResult
from repro.experiments.parallel import (
    _MAX_CPI_GUARD,
    PreparedWorkload,
    RunJob,
    _stage_span,
    prepare_workload,
)
from repro.specs.policy import PolicySpec, policy_label, resolve_policy

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle at runtime
    from repro.telemetry.tracing import Tracer

__all__ = [
    "TRACE_MEMO_SIZE",
    "batch_key",
    "clear_trace_memo",
    "execute_batched_job",
    "fast_policy",
    "prepared_trace",
    "warm_suite",
]

# Component kinds the inlined engine implements.  Anything else (readiness
# steering, token predictors, out-of-tree registrations) falls back to the
# event backend -- fast_policy returns None, the harness never promotes.
_FAST_STEERING = frozenset(("dependence", "criticality"))
_FAST_SCHEDULERS = frozenset(("oldest", "critical", "loc"))

# The canonical warm-up stack: the monolithic baseline under "l", i.e.
# exactly the run every figure normalizes against.  Training here makes
# the warmed predictor state a pure function of the trace + seed.
_WARM_POLICY = BatchedPolicy(
    steering_kind="criticality",
    preference="loc",
    scheduler="loc",
    needs_predictors=True,
)

_MISS = object()
_fast_cache: dict = {}


def fast_policy(policy: "str | PolicySpec") -> BatchedPolicy | None:
    """Lower ``policy`` to the batched engine's flags, or ``None``.

    ``None`` means the stack is outside the fast path and must run on the
    event backend.  The result is memoized per policy object (preset
    names and frozen ``PolicySpec``\\ s are both hashable).
    """
    try:
        cached = _fast_cache.get(policy, _MISS)
    except TypeError:  # unhashable spelling (a raw dict): no memo
        return _lower(policy)
    if cached is not _MISS:
        return cached
    lowered = _lower(policy)
    _fast_cache[policy] = lowered
    return lowered


def _lower(policy: "str | PolicySpec") -> BatchedPolicy | None:
    spec = resolve_policy(policy)
    scheduler = spec.scheduler
    if scheduler.kind not in _FAST_SCHEDULERS or dict(scheduler.params):
        return None
    predictor = spec.predictor
    chunk_size = 2048
    if predictor is not None:
        if predictor.kind != "chunked":
            return None
        chunk_size = dict(predictor.params)["chunk_size"]
    elif scheduler.kind != "oldest":
        # critical/loc scheduling reads predictor state; without a suite
        # the engine's columns would silently stay at their defaults.
        return None
    steering = spec.steering
    if steering.kind not in _FAST_STEERING:
        return None
    if steering.kind == "dependence":
        return BatchedPolicy(
            steering_kind="dependence",
            scheduler=scheduler.kind,
            needs_predictors=predictor is not None,
            chunk_size=chunk_size,
        )
    if predictor is None:
        return None  # criticality steering is meaningless untrained
    params = dict(steering.params)
    return BatchedPolicy(
        steering_kind="criticality",
        preference=params["preference"],
        stall_over_steer=params["stall_over_steer"],
        stall_loc_threshold=params["stall_loc_threshold"],
        proactive=params["proactive"],
        keep_min_loc=params["keep_min_loc"],
        keep_fraction=params["keep_fraction"],
        scheduler=scheduler.kind,
        needs_predictors=True,
        chunk_size=chunk_size,
    )


def batchable_config(config) -> bool:
    """Whether the batched engine can run ``config``.

    Clusters with a zero-port pool need the dispatch-level capability
    redirect, which is only implemented in the event and reference
    backends.
    """
    return all(c.fp_ports > 0 and c.mem_ports > 0 for c in config.clusters)


def batch_key(job: RunJob) -> tuple:
    """The trace identity: jobs sharing it can share one precompute pass."""
    return (job.kernel, job.instructions, job.seed, job.loc_mode)


def _max_cycles(pre: TracePrecompute) -> int:
    return _MAX_CPI_GUARD * pre.total + 10_000


def warm_suite(
    pre: TracePrecompute, loc_mode: str, seed: int
) -> ArrayPredictorState:
    """The canonical warmed predictor state for one trace.

    One live-training pass of the monolithic baseline under the ``l``
    stack; deterministic in ``(trace, loc_mode, seed)`` and shared by
    every ``warm=True`` grid point on the trace.
    """
    suite = ArrayPredictorState(pre, loc_mode, seed)
    simulate_batched(
        pre,
        monolithic_machine(),
        _WARM_POLICY,
        predictors=suite,
        live_training=True,
        max_cycles=_max_cycles(pre),
        materialize=False,
    )
    return suite


# ---------------------------------------------------------------------------
# The per-process trace memo
# ---------------------------------------------------------------------------

# Traces one process keeps state for, least recently used evicted first.
# An entry (gcc, tracemalloc) is ~0.25 MB at 300-400 instructions and
# ~8 MB at 12 000.  Sweeps are planned kernel-major, so a sweep needs one
# entry; a second covers two traces in flight at once (two service
# clients, two worker threads) without moving peak RSS.
TRACE_MEMO_SIZE = 2

# batch_key -> {stage: state}.  Every job (and thread) on a trace shares
# its entry uncopied, which is sound because nothing writes the state
# once built: DynamicInstruction and Dependences are frozen, the warm
# suite is only read (measured runs pass live_training=False), and the
# frozen cache is only filled from that one suite.
_memo: "OrderedDict[tuple, dict]" = OrderedDict()
_memo_lock = threading.Lock()


def _memoized(key: tuple, stage: str, build):
    """``build()``, run once per trace and stage in this process."""
    with _memo_lock:
        entry = _memo.get(key)
        if entry is None:
            entry = _memo[key] = {}
            if len(_memo) > TRACE_MEMO_SIZE:
                _memo.popitem(last=False)
        else:
            _memo.move_to_end(key)
        if stage not in entry:
            entry[stage] = build()
        return entry[stage]


def prepared_trace(
    kernel: str, instructions: int, seed: int, loc_mode: str
) -> PreparedWorkload:
    """One trace (:func:`batch_key` order) from the memo; a miss runs the VM."""
    return _memoized(
        (kernel, instructions, seed, loc_mode),
        "prepared",
        lambda: prepare_workload(kernel, instructions, seed),
    )


def clear_trace_memo() -> None:
    """Empty this process's memo, so the next job on any trace starts cold."""
    with _memo_lock:
        _memo.clear()


def execute_batched_job(
    job: RunJob, tracer: "Tracer | None" = None
) -> SimulationResult:
    """Run one ``sim="batched"`` job on its trace's memoized state.

    Results are bit-identical whether the memo was cold or warm.
    Raises :class:`ValueError` for jobs the backend cannot run
    (``metrics=True``, or a policy outside the fast path).
    """
    pol = fast_policy(job.policy)
    if pol is None:
        raise ValueError(
            f"policy {policy_label(job.policy)!r} is outside the batched "
            "fast path; run it with sim='event' (or let the workbench "
            "choose -- it only promotes supported stacks)"
        )
    if job.metrics:
        raise ValueError(
            "the batched backend does not attach telemetry; run metrics "
            "jobs with sim='event'"
        )
    span = partial(_stage_span, tracer, job)
    key = batch_key(job)
    with span("trace-prep"):
        prepared = prepared_trace(*key)
    with span("trace-precompute"):
        pre = _memoized(
            key, "precompute", lambda: TracePrecompute.from_prepared(prepared)
        )
    frozen = pol.needs_predictors and job.warm
    predictors = frozen_cache = None
    # The engine makes no reference cycles; the cyclic GC scanning its
    # flat columns is pure overhead.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if frozen:
            with span("warmup", sim="batched"):
                predictors, frozen_cache = _memoized(
                    key, "warm", lambda: (warm_suite(pre, job.loc_mode, job.seed), {})
                )
        elif pol.needs_predictors:
            # Cold run: live training from scratch, exactly the event
            # backend's warm=False semantics (bit-identical).
            predictors = ArrayPredictorState(pre, job.loc_mode, job.seed)
        with span("measure", sim="batched"):
            return simulate_batched(
                pre,
                job.config,
                pol,
                predictors=predictors,
                live_training=not frozen,
                collect_ilp=job.collect_ilp,
                max_cycles=_max_cycles(pre),
                frozen_cache=frozen_cache,
            )
    finally:
        if gc_was_enabled:
            gc.enable()
