"""The distributed :class:`~repro.experiments.executor.Executor` backend.

The coordinator half of :mod:`repro.distwork`, packaged behind the same
protocol every other backend implements: ``execute()`` publishes the
sweep's jobs as leased tasks, then drains settled outcomes on the
calling thread -- so ``on_outcome`` keeps the exact threading contract
the workbench and the sweep manifest journal rely on -- until every job
has settled.  Workers are *external*: start any number of ``repro
worker HOST:PORT`` processes (before or after the sweep starts; they
lease work as they arrive and more can join mid-sweep).

Determinism: jobs are deterministic in their fields and the shared
:class:`~repro.experiments.cache.RunCache` is content-addressed, so the
figure produced through N workers, any join order, stolen leases and
double executions is bit-identical to a serial run.  The executed-*job*
set is exactly the submitted set; which worker ran what is the only
nondeterminism, and it is observable only in ``OutcomeStats`` (a job
another worker already cached settles as ``source="cache"`` and does not
count as executed here).

Stats: each settled outcome counts through
:func:`~repro.experiments.outcomes.settle_stats`, the rule the local
executor uses too (``retries`` is ``attempts - 1`` per job).
``pool_respawns`` and ``timeouts`` count nothing here: the workers'
lanes are remote, and dead leases surface as ``crash`` retries instead.
"""

from __future__ import annotations

import time
import uuid
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    ExecutorUnavailable,
    JobOutcome,
    OutcomeStats,
    RunFailureError,
    settle_stats,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import RunJob
    from repro.telemetry.tracing import Tracer

__all__ = ["DistributedExecutor"]


class DistributedExecutor:
    """Shard jobs over ``repro worker`` processes at ``endpoint``.

    ``endpoint`` is ``host:port``: the TCP coordinator binds there (port
    0 for ephemeral -- see :attr:`endpoint` after first use).  It is
    parsed here, so a malformed one raises :class:`ValueError` at
    construction (:func:`repro.distwork.protocol.parse_endpoint`); one
    that parses but cannot be bound raises
    :class:`~repro.experiments.outcomes.ExecutorUnavailable` on first
    use.  The transport outlives individual ``execute()`` calls -- a
    sweep is many prefetches and workers stay connected throughout --
    and is released by :meth:`close`, which also tells idle workers to
    exit.

    ``lease_timeout`` bounds how long a silent worker holds a job before
    it is re-queued for someone else; it must comfortably exceed one
    job's runtime over the heartbeat interval (a third of it).
    """

    name = "distributed"

    def __init__(
        self,
        endpoint: str,
        *,
        lease_timeout: float = 15.0,
        poll: float = 0.05,
    ):
        from repro.distwork.protocol import parse_endpoint

        parse_endpoint(endpoint)  # a malformed endpoint fails here
        self.endpoint = endpoint
        self.lease_timeout = lease_timeout
        self.poll = poll
        self._transport = None
        self._batch = 0
        # Task ids are scoped to this executor instance: a plain batch
        # counter would repeat across runs, and a late message from an
        # earlier coordinator on the same port could then settle a
        # fresh job with a stale payload.
        self._nonce = uuid.uuid4().hex[:8]

    # ------------------------------------------------------------------
    def _ensure_transport(self):
        if self._transport is None:
            from repro.distwork.coordinator import TcpCoordinator
            from repro.distwork.protocol import parse_endpoint

            host, port = parse_endpoint(self.endpoint)
            try:
                self._transport = TcpCoordinator(
                    host, port, lease_timeout=self.lease_timeout
                )
            except OSError as exc:
                # The endpoint is unusable (port taken, bad interface,
                # unresolvable host...).  Surface it as a backend-down
                # condition the circuit breaker can count, not a raw
                # socket error.
                raise ExecutorUnavailable(
                    f"cannot open workers endpoint {self.endpoint!r}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            host, port = self._transport.address
            self.endpoint = f"{host}:{port}"
        return self._transport

    def execute(
        self,
        jobs: "Sequence[RunJob]",
        *,
        tracer: "Tracer | None" = None,
        policy: ExecutionPolicy | None = None,
        on_outcome: "Callable[[JobOutcome], None] | None" = None,
        stats: OutcomeStats | None = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> list[JobOutcome]:
        from repro.distwork.protocol import job_to_dict, policy_to_dict

        policy = policy if policy is not None else ExecutionPolicy()
        jobs = list(jobs)
        if not jobs:
            return []
        transport = self._ensure_transport()
        self._batch += 1
        policy_wire = policy_to_dict(policy)
        index_for: dict[str, int] = {}
        for i, job in enumerate(jobs):
            tid = f"{self._nonce}-b{self._batch:03d}-{i:05d}"
            index_for[tid] = i
            transport.publish(
                {"id": tid, "job": job_to_dict(job), "policy": policy_wire, "attempt": 0}
            )
        if tracer is not None:
            tracer.event(
                "distwork.publish", jobs=len(jobs), endpoint=self.endpoint
            )
        outcomes: list[JobOutcome | None] = [None] * len(jobs)
        unsettled = set(index_for)

        def stop_if_asked() -> None:
            # Polled between jobs, as the local pool does: one pump may
            # return every remaining settle, so checking only between
            # pumps could let a stop request go unnoticed.  Undelivered
            # results are already in the shared cache (workers store
            # before they report).
            if should_stop is not None and should_stop():
                transport.cancel_pending()
                raise ExecutionInterrupted(
                    f"execution stopped with {len(unsettled)} "
                    "distributed job(s) unsettled"
                )

        while unsettled:
            stop_if_asked()
            settled = transport.pump()
            if not settled:
                time.sleep(self.poll)
                continue
            for tid, message in settled:
                index = index_for.get(tid)
                if index is None or outcomes[index] is not None:
                    continue  # a stale id from an interrupted earlier batch
                outcome = self._settle(message, jobs[index], stats)
                outcomes[index] = outcome
                unsettled.discard(tid)
                if on_outcome is not None:
                    on_outcome(outcome)
                if not outcome.ok and policy.fail_fast:
                    transport.cancel_pending()
                    assert outcome.failure is not None
                    raise RunFailureError(outcome.job, outcome.failure)
                if unsettled:
                    stop_if_asked()
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _settle(
        self,
        message: dict[str, Any],
        job: "RunJob",
        stats: OutcomeStats | None,
    ) -> JobOutcome:
        from repro.distwork.protocol import ProtocolError, outcome_from_dict
        from repro.experiments.cache import job_key

        wire = outcome_from_dict(message)
        # Identity check before re-anchoring: per-run task ids make a
        # payload/job mismatch structurally impossible, so one here means
        # a stale or damaged message -- refuse loudly rather than settle
        # a job with some other job's result.
        if job_key(wire.job) != job_key(job):
            raise ProtocolError(
                "settled outcome carries a different job than the one "
                f"published for it (kernel {wire.job.kernel!r} vs "
                f"{job.kernel!r}): stale or damaged payload"
            )
        # Re-anchor on the locally-held job object: it round-trips
        # bit-identically, but the local instance is what the caller's
        # bookkeeping (memory cache keys, manifests) already holds.
        outcome = JobOutcome(
            job=job,
            result=wire.result,
            failure=wire.failure,
            attempts=wire.attempts,
            elapsed=wire.elapsed,
            source=wire.source,
        )
        settle_stats(stats, outcome)
        return outcome

    def close(self) -> None:
        """Stop workers at their next poll and release the transport."""
        transport = self._transport
        self._transport = None
        if transport is not None:
            transport.close()
