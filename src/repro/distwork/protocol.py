"""Wire format for distributed sweep execution (stdlib only).

Frames
------
Each JSON message is framed as a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  A peer closing its socket
*between* frames is a clean EOF (:func:`recv_frame` returns ``None``);
closing mid-frame is damage and raises :class:`ProtocolError`, as does a
frame longer than :data:`MAX_FRAME` (a corrupted length prefix would
otherwise read as a multi-gigabyte allocation).

Messages (coordinator <-> worker)
---------------------------------
Worker-initiated, one request/response pair per frame exchange::

    {"op": "hello", "worker": id, "version": 3}
        -> {"op": "welcome", "version": 3, "heartbeat": seconds}
         | {"op": "refused", "version": 3}     # another version: the
                                               # connection is closed
    {"op": "next", "worker": id}
        -> {"op": "task", "id": tid, "job": {...}, "policy": {...},
            "attempt": n}                      # lease granted
         | {"op": "idle"}                      # nothing queued right now
         | {"op": "stop"}                      # sweep over; exit
    {"op": "heartbeat", "worker": id, "id": tid}
        -> {"op": "ok"}                        # lease extended
         | {"op": "lost"}                      # lease stolen or task
                                               # settled: abandon the run
    {"op": "done", "worker": id, "id": tid, "outcome": {...}}
        -> {"op": "ok"}

Both sides check :data:`PROTOCOL_VERSION`: the coordinator refuses another
version and serves its other workers on, and a worker not welcomed with its
own version raises :class:`VersionMismatch` instead of reconnecting.
Version 3 results are run summaries (:func:`~repro.core.serialize.result_to_dict`);
version 2 sent packed record columns and version 1 one dict per record.

``attempt`` is the number of attempts already charged to the task by
earlier (dead) leases; the worker's in-process retry loop continues
counting from there, so the retry budget and the deterministic
fault-injection schedule both span lease boundaries exactly as they span
pool respawns in the local backend.

Codecs
------
Jobs, execution policies and outcomes cross the wire through the repo's
existing lossless serializers (:mod:`repro.core.serialize`,
:mod:`repro.specs.policy`, :class:`~repro.experiments.outcomes.RunFailure`),
so a round-tripped job hashes to the same
:func:`~repro.experiments.cache.job_key` and a round-tripped result equals
the :class:`~repro.core.results.RunSummary` the worker produced.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.core.serialize import (
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.outcomes import ExecutionPolicy, JobOutcome, RunFailure
from repro.experiments.parallel import RunJob
from repro.specs.policy import PolicySpec, canonical_policy

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "VersionMismatch",
    "job_from_dict",
    "job_to_dict",
    "outcome_from_dict",
    "outcome_to_dict",
    "parse_endpoint",
    "policy_from_dict",
    "policy_to_dict",
    "recv_frame",
    "send_frame",
]

PROTOCOL_VERSION = 3

_HEADER = struct.Struct(">I")

# A 12k-instruction summary is about 27 KB of JSON; half a GiB of headroom
# distinguishes "big result" from "garbled length prefix".
MAX_FRAME = 1 << 29


class ProtocolError(RuntimeError):
    """The peer sent something the wire format forbids."""


class VersionMismatch(RuntimeError):
    """The peer speaks another protocol version; reconnecting cannot help."""


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Send one length-prefixed JSON message."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Receive one message; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    payload = _recv_exact(sock, length, eof_ok=False)
    assert payload is not None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(message).__name__}")
    return message


def _recv_exact(sock: socket.socket, count: int, eof_ok: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``; port 0 binds an ephemeral port.

    Anything else -- an empty host, a path, a port that is not an
    integer in 0-65535 -- raises :class:`ValueError` naming the expected
    shape, so a typo fails where it is typed instead of surfacing later
    as a coordinator no worker can reach.
    """
    host, _, port = endpoint.rpartition(":")
    if (
        host
        and "/" not in host
        and "\\" not in host
        and port.isascii()
        and port.isdigit()
        and int(port) <= 65535
    ):
        return host, int(port)
    raise ValueError(
        f"workers endpoint {endpoint!r} is not host:port "
        "(a host name and a port in 0-65535)"
    )


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


def job_to_dict(job: RunJob) -> dict[str, Any]:
    """A :class:`RunJob` as JSON types (policy by name or canonical spec)."""
    policy = canonical_policy(job.policy)
    return {
        "kernel": job.kernel,
        "instructions": job.instructions,
        "seed": job.seed,
        "loc_mode": job.loc_mode,
        "config": config_to_dict(job.config),
        "policy": policy if isinstance(policy, str) else {"spec": policy.to_dict()},
        "collect_ilp": job.collect_ilp,
        "warm": job.warm,
        "sim": job.sim,
        "metrics": job.metrics,
    }


def job_from_dict(data: dict[str, Any]) -> RunJob:
    """Inverse of :func:`job_to_dict`; round-trips the cache key exactly."""
    policy = data["policy"]
    if not isinstance(policy, str):
        policy = PolicySpec.from_dict(policy["spec"])
    return RunJob(
        kernel=data["kernel"],
        instructions=data["instructions"],
        seed=data["seed"],
        loc_mode=data["loc_mode"],
        config=config_from_dict(data["config"]),
        policy=canonical_policy(policy),
        collect_ilp=data["collect_ilp"],
        warm=data["warm"],
        sim=data["sim"],
        metrics=data["metrics"],
    )


def policy_to_dict(policy: ExecutionPolicy) -> dict[str, Any]:
    return {
        "max_retries": policy.max_retries,
        "job_timeout": policy.job_timeout,
        "fail_fast": policy.fail_fast,
        "backoff_base": policy.backoff_base,
        "backoff_factor": policy.backoff_factor,
        "max_pool_respawns": policy.max_pool_respawns,
    }


def policy_from_dict(data: dict[str, Any]) -> ExecutionPolicy:
    return ExecutionPolicy(
        max_retries=int(data.get("max_retries", 2)),
        job_timeout=data.get("job_timeout"),
        fail_fast=bool(data.get("fail_fast", False)),
        backoff_base=float(data.get("backoff_base", 0.0)),
        backoff_factor=float(data.get("backoff_factor", 2.0)),
        max_pool_respawns=int(data.get("max_pool_respawns", 3)),
    )


def outcome_to_dict(outcome: JobOutcome) -> dict[str, Any]:
    """A settled :class:`JobOutcome`, job included, as JSON types."""
    return {
        "job": job_to_dict(outcome.job),
        "result": None if outcome.result is None else result_to_dict(outcome.result),
        "failure": None if outcome.failure is None else outcome.failure.to_dict(),
        "attempts": outcome.attempts,
        "elapsed": outcome.elapsed,
        "source": outcome.source,
    }


def outcome_from_dict(data: dict[str, Any]) -> JobOutcome:
    result = data.get("result")
    failure = data.get("failure")
    return JobOutcome(
        job=job_from_dict(data["job"]),
        result=None if result is None else result_from_dict(result),
        failure=None if failure is None else RunFailure.from_dict(failure),
        attempts=int(data.get("attempts", 1)),
        elapsed=float(data.get("elapsed", 0.0)),
        source=str(data.get("source", "run")),
    )
