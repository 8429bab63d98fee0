"""Distributed sweep execution: a coordinator and its workers over TCP.

A sweep's :class:`~repro.experiments.parallel.RunJob`\\ s are independent
and deterministic, which makes distribution almost embarrassingly simple
-- the only real problems are *leases* (a worker that dies mid-job must
not strand its job) and *double execution* (work stealing may run a job
twice).  This package solves the first with heartbeat leases and the
second by not caring: jobs are deterministic, results land in the
content-addressed :class:`~repro.experiments.cache.RunCache` via atomic
renames, and the coordinator settles each task exactly once, so
at-least-once execution is observably identical to exactly-once.

Layout:

* :mod:`repro.distwork.protocol` -- the length-prefixed JSON frame
  format, ``host:port`` endpoint parsing, and the job / policy / outcome
  wire codecs.
* :mod:`repro.distwork.coordinator` -- the :class:`TaskBoard` lease
  ledger and the :class:`TcpCoordinator` that serves it to workers.
* :mod:`repro.distwork.worker` -- the ``repro worker`` process: lease,
  heartbeat, execute via the existing resilient per-job path, report.

The user-facing entry points are
:class:`repro.experiments.distributed.DistributedExecutor` (coordinator
side, behind the :class:`~repro.experiments.executor.Executor` protocol)
and the ``repro worker HOST:PORT`` CLI (worker side).
"""

from repro.distwork.coordinator import TaskBoard, TcpCoordinator
from repro.distwork.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_endpoint,
)
from repro.distwork.worker import run_worker

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TaskBoard",
    "TcpCoordinator",
    "parse_endpoint",
    "run_worker",
]
