"""The asyncio job server behind ``repro serve``.

Simulation-as-a-service over the existing stack, stdlib-only: the spec
layer is the wire format (``repro.experiment_spec/1`` JSON bodies), the
content-addressed :class:`~repro.experiments.cache.RunCache` is the
dedupe substrate, the workbench's
:class:`~repro.experiments.executor.Executor`
(:meth:`~repro.experiments.harness.Workbench.prefetch`) does the work, and
:class:`~repro.experiments.manifest.SweepManifest` journals per-job
progress that the status and SSE endpoints replay.

Endpoints (all JSON; errors are ``repro.service_error/1`` payloads):

* ``POST /v1/experiments`` -- submit an ExperimentSpec body.  The spec
  is schema-validated, charged against the client's token bucket
  (``X-Repro-Client`` header names the tenant), its jobs are
  content-addressed and partitioned by the
  :class:`~repro.service.scheduler.CoalescingRegistry` into
  execute / coalesced / cached, and the residual jobs are queued by
  priority (``execution.priority`` in the spec).
* ``GET /v1/experiments/{id}`` -- status: job counters plus the sweep
  manifest summary.
* ``GET /v1/experiments/{id}/events`` -- server-sent events; every event
  carries an ``id``, and ``Last-Event-ID`` (or ``?after=N``) replays the
  journal suffix after a reconnect.
* ``GET /v1/experiments/{id}/result`` -- the schema-validated
  :class:`~repro.telemetry.report.RunReport` (with the rendered figure
  table embedded), bit-identical to running the same spec through
  :func:`~repro.experiments.sweep.run_spec` serially.
* ``GET /v1/stats`` -- service counters, executor
  :class:`~repro.experiments.outcomes.OutcomeStats`, cache counters,
  quota balances and the durability/degradation state.
* ``GET /v1/healthz`` -- liveness probe (always 200 while the loop runs).
* ``GET /v1/readyz`` -- readiness probe: 503 while the server replays
  its durable store on boot or drains for shutdown, with store, breaker
  and admission state in the body.

Threading model: the event loop owns all experiment state (records,
registry, manifests map); exactly one worker task drains the priority
queue and runs each submission's residual jobs in a thread via
``asyncio.to_thread``, which fans per-job settlements back onto the loop
with ``call_soon_threadsafe``.  The single worker serializes access to
the shared :class:`~repro.experiments.harness.Workbench` (whose process
pool provides the actual parallelism), which is what makes coalescing
airtight: claims happen on the loop, execution happens one submission at
a time, and a settled key's result is in the run cache before its flight
leaves the registry -- so at every instant an overlapping key is either
in flight (coalesce) or cached (hit), never re-executed.

Durability (:mod:`repro.service.durable`): with a cache directory the
server write-ahead journals every accepted submission, settlement and
terminal state under ``<cache>/service/``.  On boot it replays the
journal -- reconstructing records under their original ids, settling
already-cached jobs as cache hits and re-claiming residual jobs through
the coalescing registry -- so a ``kill -9`` mid-sweep costs only the
jobs that had not settled.  SIGTERM/SIGINT trigger a *graceful drain*:
new submissions get typed 503 ``draining`` errors, the in-flight sweep
checkpoints at its next settle boundary, and the store is flushed and
compacted before exit.  Overload sheds with typed 503 ``overloaded``
(admission caps), and a circuit breaker around the distributed executor
degrades to the local pool (or holds) when workers are unreachable.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

from repro.experiments.cache import RunCache, job_key
from repro.experiments.executor import BreakerExecutor, CircuitBreaker, LocalPoolExecutor
from repro.experiments.harness import DEFAULT_INSTRUCTIONS, Workbench
from repro.experiments.manifest import SweepManifest, default_manifest_dir
from repro.experiments.outcomes import (
    ExecutionInterrupted,
    ExecutionPolicy,
    JobOutcome,
    RunFailure,
)
from repro.experiments.sweep import run_spec, spec_execution
from repro.service.durable import DurableStore, default_store_dir
from repro.service.errors import ServiceError
from repro.service.quota import QuotaManager
from repro.service.scheduler import AdmissionController, CoalescingRegistry, queue_key
from repro.service.state import ExperimentRecord, JobCell
from repro.specs import ExperimentSpec, SpecError, spec_hash

__all__ = ["BackgroundServer", "ReproServer", "serve"]

STATS_SCHEMA = "repro.service_stats/1"

_MAX_BODY = 8 << 20  # 8 MiB: a spec file is kilobytes; anything bigger is abuse
_MAX_HEADER_BYTES = 64 << 10  # request line + headers combined
_READ_TIMEOUT = 30.0  # seconds to receive one complete request (anti-slowloris)
_SSE_KEEPALIVE = 15.0  # seconds between ``:`` comments on an idle stream


class _Request:
    """One parsed HTTP/1.1 request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict[str, str], body: bytes):
        self.method = method
        split = urlsplit(target)
        self.path = split.path
        self.query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        self.headers = headers
        self.body = body


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise ServiceError("bad_request", f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    header_bytes = len(line)
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(raw)
        if header_bytes > _MAX_HEADER_BYTES:
            raise ServiceError(
                "payload_too_large",
                f"request headers exceed the {_MAX_HEADER_BYTES}-byte limit",
            )
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length:
        try:
            size = int(length)
        except ValueError:
            raise ServiceError("bad_request", f"bad Content-Length {length!r}") from None
        if size < 0:
            raise ServiceError("bad_request", f"bad Content-Length {length!r}")
        if size > _MAX_BODY:
            raise ServiceError(
                "payload_too_large",
                f"body of {size} bytes exceeds the {_MAX_BODY}-byte limit",
            )
        body = await reader.readexactly(size)
    return _Request(method, target, headers, body)


def _http_payload(status: int, payload: Any, content_type: str = "application/json") -> bytes:
    body = (json.dumps(payload, indent=1) + "\n").encode("utf-8")
    reason = {
        200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
        429: "Too Many Requests", 500: "Internal Server Error",
        503: "Service Unavailable",
    }.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _sse_event(entry: dict[str, Any]) -> bytes:
    data = json.dumps(entry["data"], separators=(",", ":"))
    return (
        f"id: {entry['id']}\nevent: {entry['event']}\ndata: {data}\n\n"
    ).encode("utf-8")


class ReproServer:
    """One service instance: shared workbench, registry, quotas, HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 0,
        cache_dir: str | None = None,
        no_cache: bool = False,
        instructions: int = DEFAULT_INSTRUCTIONS,
        seed: int = 0,
        loc_mode: str = "probabilistic",
        quota: float | None = None,
        quota_refill: float = 0.0,
        execution: ExecutionPolicy | None = None,
        executor: str = "local",
        workers_endpoint: str | None = None,
        tracer=None,
        max_history: int = 256,
        durable: bool = True,
        max_queue_depth: int | None = None,
        max_client_inflight: int | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        breaker_fallback: str = "local",
        max_events_memory: int = 512,
    ):
        self.host = host
        self.port = port
        self.tracer = tracer
        self.cache = None if no_cache else RunCache(cache_dir, tracer=tracer)

        # Circuit-break the distributed backend: its coordinator transport
        # and remote workers are the service's one external dependency.
        # The wrapped instance (not the name) goes to the workbench, so
        # every prefetch routes through the breaker.
        self.breaker: CircuitBreaker | None = None
        self._breaker_executor: BreakerExecutor | None = None
        bench_executor: Any = executor
        if executor == "distributed":
            from repro.experiments.distributed import DistributedExecutor

            if not workers_endpoint:
                raise ValueError(
                    "the distributed executor needs a workers endpoint "
                    "(host:port or a spool directory)"
                )
            if breaker_fallback not in ("local", "hold"):
                raise ValueError(
                    f"breaker_fallback must be 'local' or 'hold', "
                    f"not {breaker_fallback!r}"
                )
            self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
            fallback = (
                LocalPoolExecutor(workers=workers)
                if breaker_fallback == "local"
                else None
            )
            self._breaker_executor = BreakerExecutor(
                DistributedExecutor(workers_endpoint),
                fallback=fallback,
                breaker=self.breaker,
                tracer=tracer,
            )
            bench_executor = self._breaker_executor

        self.bench = Workbench(
            instructions=instructions,
            seed=seed,
            loc_mode=loc_mode,
            workers=workers,
            cache=self.cache,
            tracer=tracer,
            execution=execution if execution is not None else ExecutionPolicy(),
            executor=bench_executor,
            workers_endpoint=workers_endpoint,
        )
        self.quota = QuotaManager(quota, quota_refill)
        self.registry = CoalescingRegistry()
        self.admission = AdmissionController(max_queue_depth, max_client_inflight)
        self.store = (
            DurableStore(default_store_dir(self.cache.root))
            if durable and self.cache is not None
            else None
        )
        self.max_events_memory = max_events_memory
        self.max_history = max_history
        self.started = time.time()

        self._records: dict[str, ExperimentRecord] = {}
        self._manifests: dict[str, SweepManifest] = {}
        self._result_cache: dict[str, dict[str, Any]] = {}
        self._history: list[str] = []  # finished record ids, oldest first
        self._seq = 0
        self._bench_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._closing = False
        self._draining = False
        self._recovering = False
        self._executing = 0  # sweeps currently inside asyncio.to_thread
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.evicted = 0
        self.jobs_cached = 0
        self.recovered = 0        # experiments rebuilt from the store
        self.recovered_jobs = 0   # residual jobs re-enqueued at boot

        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.PriorityQueue | None = None
        self._worker: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
        self._drained: asyncio.Event | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ReproServer":
        """Bind the socket and start the worker; resolves the real port.

        Recovery happens here, after the socket binds (so probes can see
        the ``recovering`` state) but before the worker task starts and
        before any submission is admitted -- a new submission must never
        claim a key a recovered experiment already owns.
        """
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.store is not None:
            self._recovering = True
            try:
                self._recover()
            finally:
                self._recovering = False
        self._worker = asyncio.create_task(self._worker_loop())
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def wait_drained(self) -> None:
        """Block until a requested drain has fully checkpointed."""
        assert self._drained is not None
        await self._drained.wait()

    async def aclose(self) -> None:
        """Stop accepting, interrupt in-flight sweeps, drain the worker."""
        self._closing = True
        self._stop_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass
        if self.store is not None:
            try:
                self._flush_store()
            except OSError:
                pass
            self.store.close()
        if self._breaker_executor is not None:
            self._breaker_executor.close()
        self.bench.close_executors()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- durability (event loop) ----------------------------------------
    def _attach_store(self, record: ExperimentRecord) -> None:
        """Wire a record's event journal to the durable store."""
        if self.store is None:
            return
        store, exp_id = self.store, record.id
        record.max_events = self.max_events_memory
        record.on_event = lambda entry: store.append_event(exp_id, entry)

    def _journal_settle(
        self,
        record: ExperimentRecord,
        key: str,
        ok: bool,
        source: str,
        failure: dict[str, Any] | None = None,
    ) -> None:
        if self.store is not None:
            self.store.record_settle(record.id, key, ok, source, failure)

    def _flush_store(self) -> None:
        """Snapshot quota balances and compact the journal (drain/exit)."""
        if self.store is None:
            return
        if self.quota.enabled:
            self.store.record_quota(self.quota.export_state())
        self.store.compact()

    _SETTLE_KINDS = {"cache": "cached", "memory": "cached", "coalesced": "coalesced"}

    def _recover(self) -> None:
        """Replay the durable store: rebuild records, re-enqueue residue.

        Runs once at boot, on the event loop, before the worker task and
        before any submission.  Stored settles apply silently (their
        events are already in the spill files); still-pending keys are
        re-claimed through the coalescing registry in original submission
        order, so exactly-once execution holds across the crash exactly
        as it held across submissions.
        """
        assert self.store is not None and self._queue is not None
        replayed = self.store.replay()
        if replayed.quota:
            self.quota.restore_state(replayed.quota)
        for stored in replayed.experiments:
            try:
                seq = int(stored.id.rsplit("-", 1)[-1])
            except ValueError:
                seq = 0
            self._seq = max(self._seq, seq)
            try:
                spec = ExperimentSpec.from_dict(stored.spec_payload)
                jobs = spec.jobs(self.bench)
            except (SpecError, ValueError, KeyError, TypeError):
                # The journaled spec no longer round-trips (schema drift,
                # hand-damaged store): skip it rather than refuse to boot.
                continue
            record = ExperimentRecord(
                id=stored.id,
                spec=spec,
                spec_hash=spec_hash(spec),
                client=stored.client,
                priority=stored.priority,
                jobs=list(jobs),
                created=stored.created,
            )
            record.events_base = self.store.event_count(record.id)
            self._attach_store(record)
            first_job: dict[str, Any] = {}
            for job in jobs:
                first_job.setdefault(job_key(job), job)
            for key, job in first_job.items():
                settle = stored.settles.get(key)
                kind = (
                    self._SETTLE_KINDS.get(settle["source"], "execute")
                    if settle is not None
                    else "execute"
                )
                record.cells[key] = JobCell(job=job, key=key, kind=kind)
                if settle is not None:
                    record.note_settled(
                        key, settle["ok"], settle["source"],
                        settle.get("failure"), publish=False,
                    )
            self._records[record.id] = record
            self.recovered += 1
            if stored.terminal is not None:
                record.status = stored.terminal["status"]
                finished = stored.terminal.get("finished")
                record.finished = float(finished) if finished else time.time()
                self._history.append(record.id)
                continue
            # Residual work: partition still-pending keys through the
            # registry, exactly as _submit does for a fresh submission.
            record.status = "queued"
            self.admission.admit(record.client, force=True)
            pending = [cell.key for cell in record.pending_cells()]
            claim = self.registry.claim(
                record, pending, is_cached=lambda k: self._is_cached(first_job[k])
            )
            run_jobs = []
            for key in claim.execute:
                run_jobs.append(first_job[key])
            for key in claim.cached:
                record.cells[key].kind = "cached"
                record.note_settled(key, True, "cache", publish=False)
                self._journal_settle(record, key, True, "cache")
                run_jobs.append(first_job[key])  # prefetch-only: 0 executed
            for key in claim.coalesced:
                record.cells[key].kind = "coalesced"
            self.jobs_cached += len(claim.cached)
            self.recovered_jobs += len(claim.execute)
            if self.tracer is not None:
                self.tracer.event(
                    "service.recover",
                    id=record.id,
                    execute=len(claim.execute),
                    cached=len(claim.cached),
                    coalesced=len(claim.coalesced),
                )
            if run_jobs:
                self._queue.put_nowait((queue_key(record.priority, seq), record, run_jobs))
            else:
                self._maybe_finalize(record)

    # -- graceful drain --------------------------------------------------
    def request_drain(self) -> None:
        """Thread- and signal-safe entry to :meth:`begin_drain`."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.begin_drain)
                return
            except RuntimeError:
                pass
        self.begin_drain()

    def begin_drain(self) -> None:
        """Flip to draining: shed new work, checkpoint in-flight work.

        New submissions get typed 503 ``draining`` errors immediately;
        the in-flight sweep (if any) stops at its next settle boundary
        via the ``should_stop`` seam -- everything already settled is in
        the cache and the journal, the residue stays pending on disk for
        the next boot.  Once execution quiesces the store is flushed and
        :meth:`wait_drained` wakes.
        """
        if self._draining:
            return
        self._draining = True
        self._stop_event.set()
        if self.tracer is not None:
            self.tracer.event("service.drain.begin")
        if self._loop is not None and self._loop.is_running():
            self._loop.create_task(self._finish_drain())
        else:
            self._complete_drain()

    async def _finish_drain(self) -> None:
        while self._executing > 0:
            await asyncio.sleep(0.02)
        self._complete_drain()

    def _complete_drain(self) -> None:
        try:
            self._flush_store()
        except OSError:
            pass
        if self.tracer is not None:
            self.tracer.event("service.drain.complete")
        if self._drained is not None:
            self._drained.set()

    # -- submission (event loop) ---------------------------------------
    def _submit(self, request: _Request) -> dict[str, Any]:
        if self._closing:
            raise ServiceError("shutting_down", "server is shutting down")
        if self._draining:
            raise ServiceError(
                "draining",
                "server is draining for shutdown; resubmit after restart",
                detail={"retry_after": 5.0},
            )
        if self._recovering:
            raise ServiceError(
                "not_ready",
                "server is replaying its durable store; retry shortly",
                detail={"retry_after": 1.0},
            )
        client = request.headers.get("x-repro-client", "anonymous")
        try:
            data = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                "invalid_json", f"body is not valid JSON: {exc}"
            ) from exc
        try:
            spec = ExperimentSpec.from_dict(data)
            jobs = spec.jobs(self.bench)
        except SpecError as exc:
            raise ServiceError(
                "invalid_spec", str(exc), detail={"schema": "repro.experiment_spec/1"}
            ) from exc

        first_job: dict[str, Any] = {}
        keys: list[str] = []
        for job in jobs:
            key = job_key(job)
            keys.append(key)
            first_job.setdefault(key, job)
        self.admission.admit(client)
        try:
            self.quota.charge(client, len(first_job))
        except ServiceError:
            self.admission.release(client)
            raise

        priority = 0
        if spec.execution is not None:
            priority = int(spec.execution.get("priority", 0))
        self._seq += 1
        record = ExperimentRecord(
            id=f"exp-{self._seq:06d}",
            spec=spec,
            spec_hash=spec_hash(spec),
            client=client,
            priority=priority,
            jobs=list(jobs),
        )
        self._attach_store(record)
        if self.store is not None:
            # Write-ahead: the submission is journaled (with its full
            # canonical spec payload) before any state that depends on
            # it, so a crash at any later point can replay it.
            self.store.record_submit(
                record.id, client, priority, record.created, spec.to_dict()
            )
        claim = self.registry.claim(
            record,
            keys,
            is_cached=lambda k: self._is_cached(first_job[k]),
        )
        execute, coalesced = set(claim.execute), set(claim.coalesced)
        run_jobs = []
        for key, job in first_job.items():
            if key in execute:
                kind = "execute"
                run_jobs.append(job)
            elif key in coalesced:
                kind = "coalesced"
            else:
                kind = "cached"
                run_jobs.append(job)  # prefetch pulls it into memory, 0 executed
            record.cells[key] = JobCell(job=job, key=key, kind=kind)
        self.jobs_cached += len(claim.cached)
        self._records[record.id] = record
        self.submitted += 1
        if self.tracer is not None:
            self.tracer.event(
                "service.submit",
                id=record.id,
                client=client,
                jobs=len(first_job),
                execute=len(claim.execute),
                coalesced=len(claim.coalesced),
                cached=len(claim.cached),
            )
            if claim.coalesced:
                self.tracer.event(
                    "service.coalesce", id=record.id, keys=len(claim.coalesced)
                )
        record.publish("status", {"status": "queued", "jobs": record.job_counts()})
        for key in claim.cached:
            if record.note_settled(key, True, "cache"):
                self._journal_settle(record, key, True, "cache")
        if run_jobs:
            assert self._queue is not None
            self._queue.put_nowait((queue_key(priority, self._seq), record, run_jobs))
        else:
            # Everything rides on other submissions' flights (or the spec
            # was empty of work): completion comes from fan-out alone.
            self._maybe_finalize(record)
        return record.status_payload(self._manifest_summary(record))

    def _is_cached(self, job) -> bool:
        if self.bench.result_for(job) is not None:
            return True
        return self.cache is not None and self.cache.contains(job)

    # -- execution (worker task + thread) ------------------------------
    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            _key, record, run_jobs = await self._queue.get()
            if record.terminal:
                continue
            if self._draining and self.store is not None:
                # Journaled and still queued: the next boot re-enqueues
                # it.  Leaving it untouched *is* the checkpoint.
                continue
            record.status = "running"
            record.publish("status", {"status": "running"})
            self._executing += 1
            try:
                await asyncio.to_thread(self._execute_jobs, record, run_jobs)
            except ExecutionInterrupted:
                if self._draining and self.store is not None:
                    # Drain checkpoint: everything settled so far is in
                    # the cache and the journal; the record stays
                    # non-terminal so recovery resumes the residue.
                    record.status = "queued"
                    record.publish("status", {"status": "queued", "drained": True})
                    continue
                self._fail_record(record, "server shutting down mid-sweep")
                continue
            except Exception as exc:  # noqa: BLE001 - typed into the record
                self._fail_record(record, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                self._executing -= 1
            # to_thread resumes via a loop callback enqueued *after* every
            # per-job call_soon_threadsafe fan-out, so all settlements from
            # this sweep have already been applied when the sweep runs.
            self._sweep_record(record)

    def _execute_jobs(self, record: ExperimentRecord, run_jobs: list) -> None:
        """Worker thread: run one submission's residual jobs."""
        manifest = self._manifest_for(record)

        def on_outcome(outcome: JobOutcome) -> None:
            key = job_key(outcome.job)
            if manifest is not None:
                manifest.record(key, outcome)
                manifest.save()
            info = {
                "ok": outcome.ok,
                "source": outcome.source,
                "failure": outcome.failure.to_dict() if outcome.failure else None,
            }
            assert self._loop is not None
            self._loop.call_soon_threadsafe(self._fan_out, record, key, info)

        with self._bench_lock, spec_execution(self.bench, record.spec):
            # The registry handed these jobs here to run: an earlier
            # failure of the same key must not stand in for the retry.
            self.bench.forget_failures(run_jobs)
            try:
                self.bench.prefetch(
                    run_jobs,
                    on_outcome=on_outcome,
                    should_stop=self._stop_event.is_set,
                )
            finally:
                if manifest is not None:
                    manifest.save(force=True)

    def _manifest_for(self, record: ExperimentRecord) -> SweepManifest | None:
        if self.cache is None:
            return None
        manifest = self._manifests.get(record.spec_hash)
        if manifest is None:
            manifest = SweepManifest.open(
                default_manifest_dir(self.cache.root),
                record.spec_hash,
                record.spec.name,
            )
            self._manifests[record.spec_hash] = manifest
        return manifest

    def _manifest_summary(self, record: ExperimentRecord) -> dict[str, int] | None:
        manifest = self._manifests.get(record.spec_hash)
        return manifest.summary() if manifest is not None else None

    # -- settlement fan-out (event loop) --------------------------------
    def _fan_out(self, record: ExperimentRecord, key: str, info: dict[str, Any]) -> None:
        parties = self.registry.settle(key) or [record]
        if len(parties) > 1 and self.tracer is not None:
            self.tracer.event("service.fanout", key=key, parties=len(parties))
        for index, party in enumerate(parties):
            source = info["source"] if party is record else "coalesced"
            if party.note_settled(key, info["ok"], source, info["failure"]):
                self._journal_settle(party, key, info["ok"], source, info["failure"])
            self._maybe_finalize(party)

    def _sweep_record(self, record: ExperimentRecord) -> None:
        """Settle leftovers after a sweep: cache-satisfied or lost jobs."""
        for cell in list(record.pending_cells()):
            if cell.kind == "coalesced" and self.registry.is_in_flight(cell.key):
                continue  # another submission's flight will fan out
            if self.bench.result_for(cell.job) is not None:
                self._fan_out(record, cell.key, {"ok": True, "source": "cache", "failure": None})
                continue
            failed = self.bench.failure_for(cell.job)
            if failed is not None and failed.failure is not None:
                self._fan_out(
                    record,
                    cell.key,
                    {"ok": False, "source": "run", "failure": failed.failure.to_dict()},
                )
                continue
            self._fan_out(
                record,
                cell.key,
                {
                    "ok": False,
                    "source": "run",
                    "failure": {
                        "kind": "error",
                        "error_type": "LostJob",
                        "message": "job produced neither result nor failure",
                        "attempts": 0,
                        "elapsed": 0.0,
                        "traceback_digest": "",
                    },
                },
            )
        self._maybe_finalize(record)

    def _maybe_finalize(self, record: ExperimentRecord) -> None:
        if record.terminal or not record.all_settled():
            return
        record.status = "done"
        record.finished = time.time()
        self.completed += 1
        self.admission.release(record.client)
        if self.store is not None:
            self.store.record_terminal(record.id, "done", record.finished)
        record.publish("done", record.status_payload(self._manifest_summary(record)))
        self._retire(record)

    def _fail_record(self, record: ExperimentRecord, message: str) -> None:
        failure = {
            "kind": "error",
            "error_type": "ServiceError",
            "message": message,
            "attempts": 0,
            "elapsed": 0.0,
            "traceback_digest": "",
        }
        # Forfeit (not re-own) every flight this record claimed: the
        # subscribers coalesced instead of claiming, so their run sets
        # exclude these keys and nobody else will ever execute them.
        # Settle each flight as failed and fan that out, so subscribers
        # reach a terminal state instead of waiting forever, and the
        # keys leave the registry for the next submission to retry.
        for flight in self.registry.forfeit(record):
            for party in flight.parties():
                if party is record:
                    if party.note_settled(
                        flight.key, False, "run", failure, publish=False
                    ):
                        self._journal_settle(party, flight.key, False, "run", failure)
                else:
                    if party.note_settled(flight.key, False, "coalesced", failure):
                        self._journal_settle(
                            party, flight.key, False, "coalesced", failure
                        )
                    self._maybe_finalize(party)
        record.status = "error"
        record.finished = time.time()
        self.errors += 1
        self.admission.release(record.client)
        if self.store is not None:
            self.store.record_terminal(record.id, "error", record.finished, message)
        record.publish("error", {"message": message, **record.status_payload()})
        self._retire(record)

    def _retire(self, record: ExperimentRecord) -> None:
        self._history.append(record.id)
        while len(self._history) > self.max_history:
            victim = self._history.pop(0)
            self._records.pop(victim, None)
            self._result_cache.pop(victim, None)
            self.evicted += 1
            if self.store is not None:
                self.store.record_evict(victim)
            if self.tracer is not None:
                self.tracer.event("service.evict", id=victim)

    # -- results --------------------------------------------------------
    def _build_result(self, record: ExperimentRecord) -> dict[str, Any]:
        """Worker thread: assemble the RunReport (+figure) for one record."""
        from repro.specs import policy_label
        from repro.telemetry import RunReport

        with self._bench_lock:
            # Failed cells (also those recovered from the journal) go into
            # the failure ledger, so rendering reports them, not re-runs.
            for cell in record.cells.values():
                if cell.status == "failed":
                    self.bench.record_failure(
                        cell.job, RunFailure.from_dict(cell.failure or {})
                    )
            # After a restart the memory cache starts empty: results for
            # cells settled before the crash live only in the run cache.
            missing = [
                cell.job
                for cell in record.cells.values()
                if cell.status == "ok" and self.bench.result_for(cell.job) is None
            ]
            if missing:
                self.bench.prefetch(missing)
            runs = []
            for job in record.jobs:
                result = self.bench.result_for(job)
                if result is not None:
                    runs.append((job, result))
            failures = [
                {
                    "kernel": cell.job.kernel,
                    "config": cell.job.config.name,
                    "policy": policy_label(cell.job.policy),
                    **(cell.failure or {}),
                }
                for cell in record.cells.values()
                if cell.status == "failed"
            ]
            try:
                figure = run_spec(self.bench, record.spec).to_dict()
            except Exception:  # noqa: BLE001 - figure is best-effort garnish
                figure = None
            report = RunReport.from_runs(
                record.spec.name,
                runs,
                failures=failures,
                workbench={
                    "instructions": self.bench.instructions,
                    "seed": self.bench.seed,
                    "loc_mode": self.bench.loc_mode,
                    "workers": self.bench.workers,
                    "sim": self.bench.sim,
                    "benchmarks": [spec.name for spec in self.bench.benchmarks],
                },
                figure=figure,
            )
        # to_json() schema-validates; the endpoint never serves a report
        # that would not round-trip through validate_report().
        return json.loads(report.to_json())

    # -- HTTP dispatch --------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                # The timeout covers receiving one *complete* request, so a
                # client trickling header bytes (slowloris) cannot pin a
                # handler task open indefinitely.
                request = await asyncio.wait_for(_read_request(reader), _READ_TIMEOUT)
            except ServiceError as exc:
                writer.write(_http_payload(exc.status, exc.to_payload()))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
                return
            if request is None:
                return
            try:
                await self._route(request, reader, writer)
            except ServiceError as exc:
                writer.write(_http_payload(exc.status, exc.to_payload()))
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - typed 500, never a hang
                payload = ServiceError(
                    "internal", f"{type(exc).__name__}: {exc}"
                ).to_payload()
                writer.write(_http_payload(500, payload))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _record_or_404(self, exp_id: str) -> ExperimentRecord:
        record = self._records.get(exp_id)
        if record is None:
            raise ServiceError(
                "not_found", f"unknown experiment {exp_id!r}",
                detail={"id": exp_id},
            )
        return record

    async def _route(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path, method = request.path, request.method
        send: Callable[[int, Any], Awaitable[None]]

        async def send(status: int, payload: Any) -> None:
            writer.write(_http_payload(status, payload))
            await writer.drain()

        if path == "/v1/experiments":
            if method != "POST":
                raise ServiceError("method_not_allowed", f"{method} {path}")
            await send(201, self._submit(request))
            return
        if path == "/v1/stats":
            if method != "GET":
                raise ServiceError("method_not_allowed", f"{method} {path}")
            await send(200, self.stats())
            return
        if path == "/v1/healthz":
            # Liveness: 200 whenever the loop can answer at all.  The
            # degradation detail lives in readyz; these fields are only a
            # convenience for humans curling the old endpoint.
            await send(200, {
                "status": "ok",
                "uptime_seconds": round(time.time() - self.started, 3),
                "draining": self._draining,
                "recovering": self._recovering,
            })
            return
        if path == "/v1/readyz":
            status, payload = self.readiness()
            await send(status, payload)
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "experiments":
            exp_id = parts[2]
            tail = parts[3] if len(parts) > 3 else None
            if method != "GET" or len(parts) > 4:
                raise ServiceError("method_not_allowed", f"{method} {path}")
            record = self._record_or_404(exp_id)
            if tail is None:
                await send(200, record.status_payload(self._manifest_summary(record)))
                return
            if tail == "result":
                if record.status == "error":
                    raise ServiceError(
                        "conflict",
                        f"experiment {exp_id} failed; no result",
                        detail={"status": record.status},
                    )
                if record.status != "done":
                    raise ServiceError(
                        "conflict",
                        f"experiment {exp_id} is {record.status}, not done",
                        detail={"status": record.status},
                    )
                payload = self._result_cache.get(exp_id)
                if payload is None:
                    payload = await asyncio.to_thread(self._build_result, record)
                    self._result_cache[exp_id] = payload
                await send(200, payload)
                return
            if tail == "events":
                await self._stream_events(record, request, writer)
                return
        raise ServiceError("not_found", f"no route for {method} {path}")

    async def _stream_events(
        self,
        record: ExperimentRecord,
        request: _Request,
        writer: asyncio.StreamWriter,
    ) -> None:
        after = request.headers.get("last-event-id", request.query.get("after", "0"))
        try:
            sent = max(0, int(after))  # highest event id already delivered
        except ValueError:
            raise ServiceError("bad_request", f"bad event id {after!r}") from None
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        while True:
            if sent < record.events_base and self.store is not None:
                # The requested suffix starts before the in-memory tail:
                # read the spilled prefix back from the durable store.
                # (Every published event is spilled before it enters
                # memory, so disk is always a superset of memory.)
                spilled = await asyncio.to_thread(self.store.load_events, record.id)
                for entry in spilled:
                    if entry["id"] > sent:
                        writer.write(_sse_event(entry))
                        sent = entry["id"]
            for entry in record.events_after(sent):
                writer.write(_sse_event(entry))
                sent = entry["id"]
            await writer.drain()
            if record.terminal and sent >= record.events_total:
                return
            known = sent
            await record.wait_for_events(known, _SSE_KEEPALIVE)
            if record.events_total <= known:
                writer.write(b": keep-alive\n\n")  # idle heartbeat

    # -- probes and stats ------------------------------------------------
    def durability(self) -> dict[str, Any]:
        """Store / recovery / breaker / drain state (readyz and stats)."""
        return {
            "durable": self.store is not None,
            "recovering": self._recovering,
            "draining": self._draining,
            "recovered": {
                "experiments": self.recovered,
                "requeued_jobs": self.recovered_jobs,
            },
            "store": self.store.stats() if self.store is not None else None,
            "breaker": self.breaker.snapshot() if self.breaker is not None else None,
            "admission": self.admission.snapshot(),
        }

    def readiness(self) -> tuple[int, dict[str, Any]]:
        """The ``/v1/readyz`` probe: (status, payload)."""
        if self._recovering:
            status, state = 503, "recovering"
        elif self._draining or self._closing:
            status, state = 503, "draining"
        else:
            status, state = 200, "ready"
        return status, {"status": state, **self.durability()}

    def stats(self) -> dict[str, Any]:
        active = sum(1 for r in self._records.values() if not r.terminal)
        payload: dict[str, Any] = {
            "schema": STATS_SCHEMA,
            "uptime_seconds": round(time.time() - self.started, 3),
            "experiments": {
                "submitted": self.submitted,
                "completed": self.completed,
                "errors": self.errors,
                "active": active,
                "evicted": self.evicted,
            },
            "jobs": {
                "claimed": self.registry.claimed_total,
                "coalesced": self.registry.coalesced_total,
                "cached": self.jobs_cached,
                "in_flight": self.registry.in_flight(),
                "executed": self.bench.exec_stats.executed,
            },
            "executor": self.bench.exec_stats.to_dict(),
            "simulations_run": self.bench.simulations_run,
            "cache": self.cache.stats() if self.cache is not None else None,
            "quota": self.quota.snapshot(),
            "durability": self.durability(),
        }
        return payload


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


async def _serve_async(server: ReproServer, announce: bool) -> None:
    import signal

    await server.start()
    loop = asyncio.get_running_loop()
    # SIGTERM/SIGINT start a graceful drain instead of killing the loop:
    # in-flight work checkpoints at the next settle boundary, the store
    # flushes, then serve() returns.  Platforms without signal-handler
    # support (Windows loops) fall back to KeyboardInterrupt in serve().
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    if announce:
        print(f"repro service listening on {server.url} "
              f"(workers={server.bench.workers}, "
              f"cache={'off' if server.cache is None else server.cache.root})")
    serve_task = asyncio.create_task(server.serve_forever())
    drain_task = asyncio.create_task(server.wait_drained())
    try:
        await asyncio.wait(
            {serve_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
        )
    except asyncio.CancelledError:
        pass
    finally:
        for task in (serve_task, drain_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass
        drained = server._draining
        await server.aclose()
        if announce and drained:
            print("repro service drained and stopped")


def serve(announce: bool = True, **kwargs: Any) -> int:
    """Blocking entry point for ``repro serve`` (signal or Ctrl-C to stop)."""
    server = ReproServer(**kwargs)
    try:
        asyncio.run(_serve_async(server, announce))
    except KeyboardInterrupt:
        if announce:
            print("\nrepro service stopped")
        return 130
    return 0


class BackgroundServer:
    """Run a :class:`ReproServer` on a daemon thread (tests, notebooks).

    ::

        with BackgroundServer(workers=0, cache_dir=tmp) as server:
            client = Client(server.url)
            ...

    ``__enter__`` blocks until the socket is bound (so ``server.port`` is
    the real ephemeral port); ``__exit__`` interrupts in-flight sweeps at
    the next settle boundary and joins the thread.
    """

    def __init__(self, **kwargs: Any):
        self._kwargs = kwargs
        self.server: ReproServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def __enter__(self) -> ReproServer:
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("background repro server failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("background repro server failed") from self._error
        assert self.server is not None
        return self.server

    async def _main(self) -> None:
        try:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.server = ReproServer(**self._kwargs)
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced in __enter__
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.server.aclose()

    def __exit__(self, *exc_info: Any) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
