"""Service-grade battery for the ``repro serve`` job API.

Everything here drives a *real* server on an ephemeral port through
:class:`repro.api.Client` -- no handler mocking -- and pins the
service's core guarantees:

* an HTTP-submitted sweep is bit-identical to ``run_spec`` on a plain
  serial workbench;
* a duplicate submission is a pure cache hit (zero new simulations);
* overlapping submissions coalesce: each shared job key simulates
  exactly once (also locked order-invariantly by a hypothesis property
  over :func:`repro.service.plan_claims`);
* quota exhaustion surfaces as a 429 ``repro.service_error/1`` payload;
* the SSE journal replays after reconnect (``Last-Event-ID``);
* chaos-injected submissions converge bit-identical to fault-free runs;
* the stats endpoint reconciles with the shared workbench's
  ``exec_stats`` / ``simulations_run`` / cache counters;
* concurrent writers cannot corrupt a :class:`SweepManifest` journal;
* a SIGKILLed server restarted on the same cache dir completes the
  original experiment id bit-identically, re-simulating only the jobs
  its write-ahead store never saw settle;
* a crash after any append leaves, once restarted, one ``job`` event
  per key and one final ``done`` on the experiment's SSE stream;
* graceful drain sheds new submissions with a typed 503 and
  checkpoints in-flight sweeps for the next incarnation;
* an unreachable distributed backend trips the circuit breaker and the
  sweep degrades to the local pool instead of failing.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import job_key
from repro.experiments.harness import Workbench
from repro.experiments.manifest import SweepManifest
from repro.experiments.sweep import run_spec
from repro.service import (
    BackgroundServer,
    Client,
    SERVICE_ERROR_SCHEMA,
    ServiceError,
    TokenBucket,
    plan_claims,
    queue_key,
    validate_error,
)
from repro.service.scheduler import CoalescingRegistry
from repro.specs import ExperimentSpec, SpecError, spec_hash
from repro.testing import chaos
from repro.workloads.suite import get_kernel

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def make_spec(
    name="svc-sweep",
    kernels=("gzip",),
    clusters=(1,),
    policies=("l",),
    instructions=2000,
    execution=None,
):
    return ExperimentSpec.from_dict(
        {
            "name": name,
            "instructions": instructions,
            "workloads": [{"kernel": k} for k in kernels],
            "sweeps": [
                {
                    "machines": [{"clusters": c} for c in clusters],
                    "policies": list(policies),
                }
            ],
            **({"execution": execution} if execution else {}),
        }
    )


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(workers=0, cache_dir=tmp_path / "cache") as srv:
        yield srv


# ---------------------------------------------------------------------------
# End-to-end round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_http_sweep_bit_identical_to_serial_run_spec(self, server, tmp_path):
        spec = make_spec(kernels=("gzip", "mcf"), clusters=(1, 2), policies=("l", "s"))
        client = Client(server.url)
        report = client.run(spec)

        bench = Workbench(workers=0)
        serial = run_spec(bench, spec)
        # JSON text, not dict equality: figures with averaged columns can
        # carry NaN cells, which never compare equal as floats.
        assert json.dumps(report["figure"], sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )

        from repro.specs import policy_label

        serial_rows = {
            (job.kernel, job.config.name, policy_label(job.policy)): bench.result_for(job)
            for job in spec.jobs(bench)
        }
        assert len(report["runs"]) == len(spec.jobs(bench))
        for row in report["runs"]:
            result = serial_rows[(row["kernel"], row["config"], row["policy"])]
            assert row["cycles"] == result.cycles
            assert row["instructions"] == result.instructions
            assert row["cpi"] == result.cpi
        assert report["schema"] == "repro.run_report/1"

    def test_duplicate_submission_is_pure_cache_hit(self, server):
        spec = make_spec(kernels=("gzip",), clusters=(1, 2))
        client = Client(server.url)
        first = client.run(spec)
        executed = client.stats()["jobs"]["executed"]
        assert executed == 2

        second_sub = client.submit(spec)
        client.wait(second_sub["id"])
        second = client.result(second_sub["id"])
        stats = client.stats()
        assert stats["jobs"]["executed"] == executed  # zero new simulations
        assert stats["jobs"]["cached"] >= 2
        assert second["runs"] == first["runs"]
        assert second["totals"] == first["totals"]
        assert second["figure"] == first["figure"]

    def test_status_and_events_reflect_lifecycle(self, server):
        spec = make_spec()
        client = Client(server.url)
        sub = client.submit(spec)
        assert sub["status"] in ("queued", "running", "done")
        final = client.wait(sub["id"])
        assert final["status"] == "done"
        assert final["jobs"]["completed"] == final["jobs"]["total"] == 1
        assert final["jobs"]["failed"] == 0

        events = list(client.events(sub["id"]))
        names = [e["event"] for e in events]
        assert names[0] == "status" and names[-1] == "done"
        assert names.count("job") == 1
        assert [e["id"] for e in events] == list(range(1, len(events) + 1))


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_overlapping_sweeps_simulate_shared_jobs_once(self, server):
        spec_a = make_spec(name="sweep-a", kernels=("gzip", "mcf"))
        spec_b = make_spec(name="sweep-b", kernels=("mcf", "gcc"))
        client = Client(server.url)

        bench = Workbench(workers=0)
        union = {job_key(j) for j in spec_a.jobs(bench)} | {
            job_key(j) for j in spec_b.jobs(bench)
        }
        assert len(union) == 3  # mcf/1/l shared

        sub_a = client.submit(spec_a)
        sub_b = client.submit(spec_b)  # while A is queued/running
        # B must not claim anything A owns: its overlap either coalesces
        # onto A's in-flight claim or (if A already finished it) comes
        # back from the cache -- never a second execution.
        assert sub_b["jobs"]["execute"] <= 1
        client.wait(sub_a["id"])
        final_b = client.wait(sub_b["id"])
        assert final_b["jobs"]["completed"] == 2

        stats = client.stats()
        assert stats["jobs"]["executed"] == len(union)  # exactly once each
        report_a = client.result(sub_a["id"])
        report_b = client.result(sub_b["id"])
        rows_a = {r["kernel"]: r for r in report_a["runs"]}
        rows_b = {r["kernel"]: r for r in report_b["runs"]}
        assert rows_a["mcf"] == rows_b["mcf"]  # fan-out delivered the same result

    def test_registry_exactly_once_and_fan_out(self):
        registry = CoalescingRegistry()
        first = registry.claim("a", ["k1", "k2", "k1"])  # in-submission dupes collapse
        assert first.execute == ("k1", "k2")
        second = registry.claim("b", ["k2", "k3"])
        assert second.coalesced == ("k2",) and second.execute == ("k3",)
        assert registry.settle("k2") == ["a", "b"]  # owner first
        assert registry.settle("k2") == []  # settled keys leave the registry
        third = registry.claim("c", ["k2"], is_cached=lambda k: True)
        assert third.cached == ("k2",)

    def test_registry_forfeit_settles_subscribed_flights(self):
        # A forfeited flight must leave the registry *with* its
        # subscribers reported, never be re-owned: the subscribers
        # coalesced instead of claiming, so no surviving submission has
        # the key in its run set and a re-owned flight would sit in the
        # registry forever (stranding the subscriber and swallowing
        # every future submission of the key).
        registry = CoalescingRegistry()
        registry.claim("a", ["k1", "k2"])
        registry.claim("b", ["k1"])
        forfeited = {f.key: f.parties() for f in registry.forfeit("a")}
        assert forfeited == {"k1": ["a", "b"], "k2": ["a"]}
        assert registry.in_flight() == 0  # nothing stranded
        assert registry.claim("c", ["k1"]).execute == ("k1",)  # retryable

    def test_priority_queue_ordering(self):
        entries = sorted(
            [queue_key(0, 1), queue_key(5, 2), queue_key(5, 3), queue_key(-1, 4)]
        )
        assert entries == [(-5, 2), (-5, 3), (0, 1), (1, 4)]


KEYS = st.lists(
    st.sampled_from([f"k{i}" for i in range(8)]), min_size=0, max_size=8
)
SUBMISSIONS = st.lists(KEYS, min_size=0, max_size=6)


class TestCoalescingProperties:
    @settings(max_examples=200)
    @given(submissions=SUBMISSIONS, cached=st.sets(st.sampled_from([f"k{i}" for i in range(8)])))
    def test_claims_partition_each_submission(self, submissions, cached):
        claims = plan_claims(submissions, cached)
        executed_union: set[str] = set()
        for keys, claim in zip(submissions, claims):
            unique = list(dict.fromkeys(keys))
            parts = [*claim.execute, *claim.coalesced, *claim.cached]
            assert sorted(parts) == sorted(unique)  # a partition, no dupes
            assert set(claim.cached) <= cached
            # coalesced keys were claimed by an earlier submission
            assert set(claim.coalesced) <= executed_union
            # exactly-once: no key is executed twice across submissions
            assert not (set(claim.execute) & executed_union)
            executed_union |= set(claim.execute)
        all_keys = set().union(*map(set, submissions)) if submissions else set()
        assert executed_union == all_keys - cached

    @settings(max_examples=100)
    @given(
        submissions=SUBMISSIONS,
        cached=st.sets(st.sampled_from([f"k{i}" for i in range(8)])),
        seed=st.randoms(use_true_random=False),
    )
    def test_executed_set_is_order_invariant(self, submissions, cached, seed):
        baseline = plan_claims(submissions, cached)
        shuffled = list(submissions)
        seed.shuffle(shuffled)
        permuted = plan_claims(shuffled, cached)

        def executed(claims):
            return set().union(*(set(c.execute) for c in claims)) if claims else set()

        assert executed(baseline) == executed(permuted)
        assert sum(len(c.execute) for c in baseline) == sum(
            len(c.execute) for c in permuted
        )


# ---------------------------------------------------------------------------
# Quotas and typed errors
# ---------------------------------------------------------------------------


class TestQuota:
    def test_quota_exhaustion_is_a_429_typed_error(self, tmp_path):
        with BackgroundServer(
            workers=0, cache_dir=tmp_path / "cache", quota=3
        ) as server:
            client = Client(server.url, client_id="alice")
            spec = make_spec(clusters=(1, 2))  # cost 2
            first = client.submit(spec)
            client.wait(first["id"])
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec)  # cost 2 > 1 remaining
            err = excinfo.value
            assert err.code == "quota_exhausted"
            assert err.status == 429
            assert err.detail["client"] == "alice"
            assert err.detail["cost"] == 2
            assert err.detail["capacity"] == 3
            validate_error(err.to_payload())

            # quotas are per-client: another tenant still gets through
            other = Client(server.url, client_id="bob")
            sub = other.submit(spec)
            assert other.wait(sub["id"])["status"] == "done"
            snapshot = other.stats()["quota"]
            assert set(snapshot) == {"alice", "bob"}

    def test_token_bucket_refills_lazily(self):
        now = [0.0]
        bucket = TokenBucket(4, refill_rate=2.0, clock=lambda: now[0])
        assert bucket.try_consume(4)
        assert not bucket.try_consume(1)
        assert bucket.retry_after(2) == pytest.approx(1.0)
        now[0] += 1.0
        assert bucket.available() == pytest.approx(2.0)
        assert bucket.try_consume(2)
        assert bucket.retry_after(5) is None  # can never afford it

    def test_http_error_payloads_are_typed(self, server):
        client = Client(server.url)
        for do, code, status in [
            (lambda: client._request("POST", "/v1/experiments", headers={"Content-Type": "application/json"}), "invalid_json", 400),
            (lambda: client.submit({"name": "x"}), "invalid_spec", 400),
            (lambda: client.status("exp-999999"), "not_found", 404),
            (lambda: client._request("GET", "/v1/experiments"), "method_not_allowed", 405),
            (lambda: client._request("POST", "/v1/stats"), "method_not_allowed", 405),
            (lambda: client._request("GET", "/v1/nope"), "not_found", 404),
        ]:
            with pytest.raises(ServiceError) as excinfo:
                do()
            assert excinfo.value.code == code
            assert excinfo.value.status == status
            payload = excinfo.value.to_payload()
            assert payload["schema"] == SERVICE_ERROR_SCHEMA
            validate_error(payload)

    def test_negative_content_length_is_a_typed_400(self, server):
        # http.client never sends a negative Content-Length, so speak raw
        # bytes: the parser must reject it as bad_request, not blow up in
        # readexactly() and drop the connection without a response.
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/experiments HTTP/1.1\r\n"
                b"Host: test\r\nContent-Length: -5\r\n\r\n"
            )
            raw = b""
            while chunk := sock.recv(65536):  # server closes after responding
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        payload = json.loads(body.decode("utf-8"))
        assert payload["error"] == "bad_request"
        validate_error(payload)

    def test_result_before_completion_conflicts(self, server):
        spec = make_spec(kernels=("gzip", "mcf"), instructions=30_000)
        client = Client(server.url)
        sub = client.submit(spec)
        try:
            client.result(sub["id"])
        except ServiceError as err:
            assert err.code == "conflict"
            assert err.status == 409
        else:
            # Only acceptable if the sweep genuinely finished already.
            assert client.status(sub["id"])["status"] == "done"
        client.wait(sub["id"])


class TestClientUrl:
    def test_client_parses_ipv6_and_schemeless_urls(self):
        # [::1] used to partition on the first ':', yielding host "[".
        for url, host, port in [
            ("http://[::1]:8035", "::1", 8035),
            ("http://127.0.0.1:9000", "127.0.0.1", 9000),
            ("127.0.0.1:9000", "127.0.0.1", 9000),
            ("localhost:9000", "localhost", 9000),
            ("http://localhost", "localhost", 80),
        ]:
            client = Client(url)
            assert (client.host, client.port) == (host, port)

    def test_client_rejects_non_http_schemes(self):
        with pytest.raises(ValueError):
            Client("https://localhost:1")


# ---------------------------------------------------------------------------
# SSE replay
# ---------------------------------------------------------------------------


class TestEvents:
    def test_sse_replays_journal_after_reconnect(self, server):
        spec = make_spec(kernels=("gzip", "mcf"))
        client = Client(server.url)
        sub = client.submit(spec)
        client.wait(sub["id"])

        full = list(client.events(sub["id"]))
        assert len(full) >= 4  # status, 2 jobs, done
        # Drop the connection after two events, reconnect with
        # Last-Event-ID: the replayed suffix must match exactly.
        seen = []
        for event in client.events(sub["id"]):
            seen.append(event)
            if len(seen) == 2:
                break
        resumed = list(client.events(sub["id"], after=seen[-1]["id"]))
        assert seen + resumed == full

    def test_sse_replay_from_scratch_is_idempotent(self, server):
        spec = make_spec()
        client = Client(server.url)
        sub = client.submit(spec)
        client.wait(sub["id"])
        assert list(client.events(sub["id"])) == list(client.events(sub["id"]))


# ---------------------------------------------------------------------------
# Chaos
# ---------------------------------------------------------------------------


class TestChaos:
    def test_chaos_injected_submission_converges_bit_identical(self, server):
        spec = make_spec(kernels=("gzip", "mcf"))
        client = Client(server.url)
        config = chaos.ChaosConfig(
            rules=(chaos.FaultRule(mode="error", attempts=(1,)),)
        )
        chaos.install(config)
        try:
            report = client.run(spec)
        finally:
            chaos.uninstall()
        final = client.stats()
        # every job failed its first attempt and was retried
        assert final["executor"]["retries"] >= 2
        assert final["executor"]["failed"] == 0

        bench = Workbench(workers=0)
        serial = run_spec(bench, spec)
        # JSON text, not dict equality: figures with averaged columns can
        # carry NaN cells, which never compare equal as floats.
        assert json.dumps(report["figure"], sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )

    def test_failed_sweep_fails_over_coalesced_subscribers(self, server):
        # A claims gzip+mcf+gcc: gzip hangs long enough for B to submit
        # and coalesce onto mcf+gcc, then mcf errors under fail_fast, so
        # A's sweep raises RunFailureError with gcc never executed.  The
        # forfeited flights must settle B as failed -- before the fix,
        # release() re-owned them to B (which has no execution path for
        # them), leaving B "running" forever and every later submission
        # of those keys coalescing onto the dead flight.
        spec_a = make_spec(
            name="doomed",
            kernels=("gzip", "mcf", "gcc"),
            execution={"fail_fast": True, "max_retries": 0},
        )
        spec_b = make_spec(name="rider", kernels=("mcf", "gcc"))
        client = Client(server.url)
        chaos.install(
            chaos.ChaosConfig(
                rules=(
                    chaos.FaultRule(mode="hang", match={"kernel": "gzip"}),
                    chaos.FaultRule(mode="error", match={"kernel": "mcf"}),
                ),
                hang_seconds=2.0,
            )
        )
        try:
            sub_a = client.submit(spec_a)
            sub_b = client.submit(spec_b)  # lands inside gzip's hang
            assert sub_b["jobs"]["coalesced"] == 2  # riding A's flights
            final_a = client.wait(sub_a["id"])
            final_b = client.wait(sub_b["id"], timeout=10.0)
        finally:
            chaos.uninstall()
        assert final_a["status"] == "error"
        # B terminates: per-job failures are results, so it ends "done"
        # with its coalesced cells marked failed, not stuck "running".
        assert final_b["status"] == "done"
        assert final_b["jobs"]["failed"] == 2
        stats = client.stats()
        assert stats["jobs"]["in_flight"] == 0  # registry fully drained
        # The forfeited keys are retryable: a fresh fault-free submission
        # re-claims and executes them instead of coalescing onto a ghost.
        retry = client.submit(spec_b)
        assert retry["jobs"]["coalesced"] == 0
        final_retry = client.wait(retry["id"])
        assert final_retry["status"] == "done"
        assert final_retry["jobs"]["failed"] == 0

    def test_service_failures_settle_as_failed_jobs_not_500s(self, server):
        spec = make_spec()
        client = Client(server.url)
        # error on every attempt: retries exhaust, job fails, experiment
        # still completes with failed=1 and the report carries the failure
        chaos.install(chaos.ChaosConfig(rules=(chaos.FaultRule(mode="error"),)))
        try:
            sub = client.submit(spec)
            final = client.wait(sub["id"])
        finally:
            chaos.uninstall()
        assert final["status"] == "done"
        assert final["jobs"]["failed"] == 1
        report = client.result(sub["id"])
        assert report["totals"]["failed"] == 1
        assert report["failures"][0]["kind"] == "injected"

    def test_result_does_not_rerun_a_failed_job(self, server):
        # /result renders the figure through run_spec on the shared bench.
        # The failed cell must render from the failure ledger: re-running
        # it (the fault has cleared by then) would burn another attempt
        # and embed a figure contradicting the report.
        spec = make_spec(
            kernels=("gcc",), clusters=(2,), instructions=500,
            execution={"max_retries": 1},
        )
        client = Client(server.url)
        chaos.install(chaos.ChaosConfig(rules=(chaos.FaultRule(mode="error"),)))
        try:
            sub = client.submit(spec)
            final = client.wait(sub["id"])
        finally:
            chaos.uninstall()
        assert final["jobs"]["failed"] == 1
        settled = server.bench.exec_stats.to_dict()
        report = client.result(sub["id"])
        assert server.bench.exec_stats.to_dict() == settled  # no new attempt
        assert server.bench.simulations_run == 0
        assert report["totals"]["failed"] == 1
        (row,) = report["figure"]["rows"]
        assert row[:4] == ["gcc", "2x4w", "l", "FAILED(injected)"]

    def test_result_after_restart_does_not_rerun_a_failed_job(self, tmp_path):
        # After a restart the ledger starts empty; the journal's failed
        # cells must still keep rendering from re-running the job.
        cache_dir = tmp_path / "cache"
        spec = make_spec(
            kernels=("gcc",), clusters=(2,), instructions=500,
            execution={"max_retries": 0},
        )
        chaos.install(chaos.ChaosConfig(rules=(chaos.FaultRule(mode="error"),)))
        try:
            with BackgroundServer(workers=0, cache_dir=cache_dir) as first:
                client = Client(first.url)
                sub = client.submit(spec)
                assert client.wait(sub["id"])["jobs"]["failed"] == 1
        finally:
            chaos.uninstall()
        with BackgroundServer(workers=0, cache_dir=cache_dir) as second:
            report = Client(second.url).result(sub["id"])
            assert second.bench.exec_stats.to_dict()["executed"] == 0
            assert second.bench.simulations_run == 0
        assert report["totals"]["failed"] == 1
        (row,) = report["figure"]["rows"]
        assert row[:4] == ["gcc", "2x4w", "l", "FAILED(injected)"]


# ---------------------------------------------------------------------------
# Stats reconciliation
# ---------------------------------------------------------------------------


class TestStats:
    def test_stats_reconcile_with_workbench_counters(self, server):
        spec = make_spec(kernels=("gzip", "mcf"), clusters=(1, 2))
        client = Client(server.url)
        client.run(spec)
        client.run(spec)  # duplicate: all cached

        stats = client.stats()
        bench = server.bench
        assert stats["executor"] == bench.exec_stats.to_dict()
        assert stats["simulations_run"] == bench.simulations_run
        # No failures and no retries here, so every execution the service
        # claims must equal what the bench actually simulated -- this is
        # the counter-drift regression (the batched group path used to
        # skip exec_stats.executed).
        assert stats["jobs"]["executed"] == stats["simulations_run"] == 4
        assert stats["cache"] == server.cache.stats()
        assert stats["cache"]["stores"] == 4
        assert stats["experiments"]["submitted"] == 2
        assert stats["experiments"]["completed"] == 2
        assert stats["experiments"]["errors"] == 0
        assert stats["jobs"]["in_flight"] == 0

    def test_batched_group_path_counts_executed(self, tmp_path):
        # Direct regression for the drift: grouped batched prefetch must
        # tick exec_stats.executed exactly like the per-job executor.
        bench = Workbench(instructions=2000, workers=0)
        jobs = [
            bench.job(get_kernel("gzip"), bench.clustered(c), "l") for c in (1, 2, 4)
        ]
        ran = bench.prefetch(jobs)
        assert ran == 3
        assert bench.exec_stats.executed == bench.simulations_run == 3


# ---------------------------------------------------------------------------
# Workbench memory-key regression (service shares one bench across specs)
# ---------------------------------------------------------------------------


class TestMemoryKey:
    def test_memory_cache_keys_on_instructions_and_seed(self):
        bench = Workbench(instructions=2000, workers=0)
        base = bench.job(get_kernel("gzip"), bench.clustered(1), "l")
        variants = [
            base,
            replace(base, instructions=1000),
            replace(base, seed=7),
        ]
        bench.prefetch(variants)
        for job in variants:
            result = bench.result_for(job)
            assert result is not None
            assert result.instructions == job.instructions
        # the old field-subset key collapsed all three to one simulation
        assert bench.simulations_run == 3


# ---------------------------------------------------------------------------
# Manifest concurrency
# ---------------------------------------------------------------------------


def _fake_outcome(n: int):
    return SimpleNamespace(
        ok=True,
        job=SimpleNamespace(kernel=f"k{n}", config=SimpleNamespace(name="m")),
        attempts=1,
        elapsed=0.01,
        failure=None,
    )


class TestManifestConcurrency:
    def test_concurrent_writers_never_corrupt_the_journal(self, tmp_path):
        manifest = SweepManifest.open(tmp_path, "deadbeef" * 8, "concurrent")
        per_thread, threads = 50, 4
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def writer(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = f"t{tid}-{i}"
                    manifest.record(key, _fake_outcome(i))
                    manifest.save()
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        workers = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        assert not list(tmp_path.glob("*.corrupt"))
        assert not list(tmp_path.glob("*.tmp-*"))  # no orphaned temp files

        reloaded = SweepManifest.open(tmp_path, "deadbeef" * 8, "concurrent")
        assert len(reloaded.entries) == per_thread * threads
        assert reloaded.summary()["completed"] == per_thread * threads

    def test_summary_reads_while_another_thread_records(self, tmp_path):
        import sys

        manifest = SweepManifest.open(tmp_path, "12" * 32, "reader")
        recorded = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            try:
                for i in range(3000):
                    manifest.record(f"k{i}", _fake_outcome(i))
            finally:
                recorded.set()

        def reader() -> None:
            try:
                while not recorded.is_set():
                    manifest.summary()
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert manifest.summary()["jobs"] == 3000

    def test_two_manifest_instances_share_a_path_safely(self, tmp_path):
        # Cross-instance (cross-process analogue): both append to one file
        # while saving in a loop, and neither drops the other's entries.
        a = SweepManifest.open(tmp_path, "ab" * 32, "left")
        b = SweepManifest.open(tmp_path, "ab" * 32, "right")
        errors: list[BaseException] = []

        def churn(manifest: SweepManifest, tag: str) -> None:
            try:
                for i in range(100):
                    manifest.record(f"{tag}-{i}", _fake_outcome(i))
                    manifest.save()
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(a, "a")),
            threading.Thread(target=churn, args=(b, "b")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reloaded = SweepManifest.open(tmp_path, "ab" * 32, "reload")
        assert set(reloaded.entries) == {f"{tag}-{i}" for tag in "ab" for i in range(100)}
        assert reloaded.summary()["completed"] == 200
        assert not list(tmp_path.glob("*.corrupt"))
        lines = (tmp_path / ("ab" * 32 + ".jsonl")).read_text().splitlines()
        assert len(lines) == 200
        assert all(json.loads(line)["schema"] == "repro.sweep_manifest/2" for line in lines)

    def test_append_waits_for_an_exclusive_lock_on_the_file(self, tmp_path):
        # An append reads the file's last byte to seal a torn tail; the
        # lock keeps it from reading while another writer is mid-write.
        import fcntl

        from repro.experiments.journal import Journal

        journal = Journal(tmp_path / "locked.jsonl")
        journal.append({"n": 0})
        appended = threading.Event()

        def append() -> None:
            journal.append({"n": 1})
            appended.set()

        with open(journal.path, "rb") as holder:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            thread = threading.Thread(target=append)
            thread.start()
            assert not appended.wait(0.3), "append did not wait for the lock"
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
            assert appended.wait(5.0)
        thread.join(5.0)
        assert not thread.is_alive()
        assert journal.read() == [{"n": 0}, {"n": 1}]
        assert journal.path.read_bytes().count(b"\n") == 2


def _failed_outcome(n: int):
    failure = SimpleNamespace(to_dict=lambda: {"kind": "error", "attempts": 1})
    return SimpleNamespace(**{**vars(_fake_outcome(n)), "ok": False, "failure": failure})


class TestManifestFile:
    def test_save_appends_only_new_lines_and_the_last_line_wins(self, tmp_path):
        manifest = SweepManifest.open(tmp_path, "ef" * 32, "lines")
        manifest.save(force=True)  # nothing new, but the file exists
        assert manifest.path.read_text() == ""
        inode = manifest.path.stat().st_ino
        manifest.record("k0", _fake_outcome(0))
        manifest.save()
        manifest.save()  # nothing new: no write
        manifest.record("k0", _failed_outcome(0))
        manifest.record("k1", _fake_outcome(1))
        assert manifest.summary() == {"jobs": 2, "completed": 1, "failed": 1, "resumed": 0}
        manifest.save()
        assert manifest.path.stat().st_ino == inode  # appended, never replaced
        lines = [json.loads(line) for line in manifest.path.read_text().splitlines()]
        assert [(line["key"], line["status"]) for line in lines] == [
            ("k0", "ok"), ("k0", "failed"), ("k1", "ok"),
        ]
        reopened = SweepManifest.open(tmp_path, "ef" * 32, "lines")
        assert reopened.entries["k0"]["status"] == "failed"
        assert reopened.entries["k0"]["failure"] == {"kind": "error", "attempts": 1}
        assert reopened.resumed == {"k1"}
        assert reopened.summary() == {"jobs": 2, "completed": 1, "failed": 1, "resumed": 1}

    def test_torn_last_line_is_quarantined_alone(self, tmp_path):
        import warnings

        manifest = SweepManifest.open(tmp_path, "cd" * 32, "torn")
        for i in range(3):
            manifest.record(f"k{i}", _fake_outcome(i))
        manifest.save()
        torn = '{"key":"k3","schema":"repro.sweep_manifest/2","sta'  # killed mid-append
        with open(manifest.path, "a", encoding="utf-8") as fh:
            fh.write(torn)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = SweepManifest.open(tmp_path, "cd" * 32, "torn")
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1 and "sweep manifest" in str(warned[0].message)
        assert set(reopened.entries) == reopened.resumed == {"k0", "k1", "k2"}
        quarantine = tmp_path / ("cd" * 32 + ".jsonl.corrupt")
        assert quarantine.read_text().splitlines() == [torn]
        # The next save seals the torn tail, so its own line stays whole.
        reopened.record("k3", _fake_outcome(3))
        reopened.save()
        with pytest.warns(RuntimeWarning, match="1 damaged line"):
            again = SweepManifest.open(tmp_path, "cd" * 32, "torn")
        assert set(again.entries) == {"k0", "k1", "k2", "k3"}


class TestWorkbenchBound:
    def test_bench_keeps_results_and_failures_of_retained_records_only(
        self, tmp_path
    ):
        with BackgroundServer(
            workers=0, cache_dir=tmp_path / "cache", max_history=1
        ) as server:
            client = Client(server.url)
            chaos.install(
                chaos.ChaosConfig(
                    rules=(chaos.FaultRule(mode="error", match={"kernel": "mcf"}),)
                )
            )
            try:
                doomed = make_spec(
                    name="doomed",
                    kernels=("mcf",),
                    instructions=300,
                    execution={"max_retries": 0},
                )
                sub = client.submit(doomed)
                assert client.wait(sub["id"])["status"] == "done"
            finally:
                chaos.uninstall()
            assert len(server.bench.failed_outcomes()) == 1
            for n in range(4):
                sub = client.submit(make_spec(name=f"distinct-{n}", instructions=300 + n))
                assert client.wait(sub["id"])["status"] == "done"
            (record,) = server._records.values()
            assert [job for job, _ in server.bench.cached_results()] == record.jobs
            assert server.bench.failed_outcomes() == []

    def test_result_of_a_record_evicted_while_building_is_not_served(
        self, tmp_path, monkeypatch
    ):
        with BackgroundServer(
            workers=0, cache_dir=tmp_path / "cache", max_history=1
        ) as server:
            client = Client(server.url)
            first = client.submit(make_spec(name="first", instructions=300))
            assert client.wait(first["id"])["status"] == "done"
            build = server._build_result

            def build_after_eviction(record):
                later = client.submit(make_spec(name="later", instructions=301))
                assert client.wait(later["id"])["status"] == "done"
                return build(record)

            monkeypatch.setattr(server, "_build_result", build_after_eviction)
            with pytest.raises(ServiceError) as excinfo:
                client.result(first["id"])
            assert excinfo.value.status == 404
            assert first["id"] not in server._result_cache


class TestSpillQuarantine:
    def test_damaged_spill_lines_are_quarantined_once_and_evicted(self, tmp_path):
        from repro.service import DurableStore

        store = DurableStore(tmp_path / "service")
        store.append_event("exp-000001", {"id": 1, "event": "status", "data": {}})
        spill = store.events_path("exp-000001")
        with open(spill, "a", encoding="utf-8") as fh:
            fh.write('{"id": 2, "ev')  # torn by a kill mid-append
        store.append_event("exp-000001", {"id": 3, "event": "status", "data": {}})
        assert [e["id"] for e in store.load_events("exp-000001")] == [1, 3]
        corrupt = spill.with_name(spill.name + ".corrupt")
        assert corrupt.read_text() == '{"id": 2, "ev\n'
        assert len(store.load_events("exp-000001")) == 2
        assert store.stats()["quarantined"] == 1  # moved aside, counted once
        store.record_evict("exp-000001")
        assert not spill.exists() and not corrupt.exists()


# ---------------------------------------------------------------------------
# Spec-layer service knobs
# ---------------------------------------------------------------------------


class TestSpecPriority:
    def test_priority_accepted_and_reported(self, server):
        spec = make_spec(execution={"priority": 5})
        client = Client(server.url)
        sub = client.submit(spec)
        assert sub["priority"] == 5
        client.wait(sub["id"])

    def test_priority_does_not_perturb_policy_or_hash(self):
        plain = make_spec()
        urgent = make_spec(execution={"priority": 9, "max_retries": 0})
        assert spec_hash(plain) == spec_hash(urgent)  # execution excluded
        from repro.experiments.outcomes import ExecutionPolicy

        base = ExecutionPolicy()
        derived = urgent.execution_policy(base)
        assert derived.max_retries == 0  # policy keys applied
        assert not hasattr(derived, "priority")  # service key filtered out

    def test_priority_must_be_an_integer(self):
        with pytest.raises(SpecError):
            make_spec(execution={"priority": "high"})


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_serve_subcommand_help(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--port",
            "--workers",
            "--cache-dir",
            "--quota",
            "--no-durable",
            "--max-queue-depth",
            "--max-client-inflight",
            "--breaker-threshold",
            "--breaker-cooldown",
            "--breaker-fallback",
        ):
            assert flag in out


# ---------------------------------------------------------------------------
# Durable store (unit)
# ---------------------------------------------------------------------------


def _job_event(event_id, key, status="ok", source="run", **extra):
    """One ``job`` entry of an experiment's event log."""
    data = {"key": key, "status": status, "kind": "execute", "source": source}
    return {"id": event_id, "event": "job", "data": {**data, **extra}}


class TestDurableStore:
    def test_journal_round_trips_through_replay(self, tmp_path):
        from repro.service import DurableStore

        store = DurableStore(tmp_path / "service")
        spec = make_spec()
        store.record_submit("exp-000001", "alice", 2, 123.0, spec.to_dict())
        store.append_event("exp-000001", {"id": 1, "event": "status", "data": {}})
        store.append_event("exp-000001", _job_event(2, "k1"))
        store.append_event(
            "exp-000001", _job_event(3, "k2", "failed", failure={"kind": "error"})
        )
        store.append_event("exp-000001", _job_event(4, "k1", source="cache"))  # dupe
        store.record_quota({"alice": 1.5})
        store.append_event(
            "exp-000001",
            {"id": 5, "event": "done", "data": {"status": "done", "elapsed_seconds": 1.25}},
        )
        store.close()

        replayed = DurableStore(tmp_path / "service").replay()
        assert replayed.quarantined == 0
        assert replayed.quota == {"alice": 1.5}
        [exp] = replayed.experiments
        assert (exp.id, exp.client, exp.priority, exp.created) == (
            "exp-000001", "alice", 2, 123.0,
        )
        assert exp.spec_payload == spec.to_dict()
        # the first job event of a key wins, matching note_settled()
        assert exp.settles["k1"] == {
            "ok": True, "source": "run", "failure": None, "kind": "execute",
        }
        assert not exp.settles["k2"]["ok"]
        assert exp.settles["k2"]["failure"] == {"kind": "error"}
        assert exp.terminal == {"status": "done", "finished": 124.25}
        assert exp.status == "done" and exp.events == 5
        # the journal itself holds only what no event records
        lines = store.journal_path.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == ["submit", "quota"]

    def test_corrupt_and_truncated_lines_are_quarantined(self, tmp_path):
        from repro.service import DurableStore

        store = DurableStore(tmp_path / "service")
        store.record_submit("exp-000001", "a", 0, 1.0, make_spec().to_dict())
        store.append_event("exp-000001", _job_event(1, "k1"))
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
            fh.write('{"type": "submit", "id": "exp-000002"\n')  # torn tail
        with open(store.events_path("exp-000001"), "a", encoding="utf-8") as fh:
            fh.write('{"id": 2, "event": "job", "data": {"key": "k2"')  # torn tail

        fresh = DurableStore(tmp_path / "service")
        replayed = fresh.replay()
        assert replayed.quarantined == 2
        assert fresh.quarantine_path.exists()
        assert len(fresh.quarantine_path.read_text().splitlines()) == 2
        assert fresh.stats()["quarantined"] == 3  # the torn event too
        [exp] = replayed.experiments  # intact prefix fully recovered
        assert exp.settles == {
            "k1": {"ok": True, "source": "run", "failure": None, "kind": "execute"},
        }
        assert exp.events == 1 and exp.terminal is None

    def test_evict_drops_experiment_and_events(self, tmp_path):
        from repro.service import DurableStore

        store = DurableStore(tmp_path / "service")
        store.record_submit("exp-000001", "a", 0, 1.0, make_spec().to_dict())
        store.append_event("exp-000001", {"id": 1, "event": "status", "data": {}})
        assert len(store.load_events("exp-000001")) == 1
        store.record_evict("exp-000001")
        assert not store.events_path("exp-000001").exists()
        assert store.replay().experiments == []

    def test_compact_collapses_and_sweeps_orphans(self, tmp_path):
        from repro.service import DurableStore

        store = DurableStore(tmp_path / "service")
        spec = make_spec()
        store.record_submit("exp-000001", "a", 0, 1.0, spec.to_dict())
        store.record_submit("exp-000002", "a", 0, 2.0, spec.to_dict())
        store.append_event("exp-000001", _job_event(1, "k1"))
        store.append_event(
            "exp-000001", {"id": 2, "event": "done", "data": {"elapsed_seconds": 2.0}}
        )
        store.record_evict("exp-000002")
        store.record_quota({"a": 2.0})
        store.record_quota({"a": 1.0})  # last snapshot wins
        store.append_event("exp-gone", {"id": 1, "event": "status", "data": {}})
        assert store.compact() == 1
        assert not list(store.root.glob("*.tmp-*"))
        assert not store.events_path("exp-gone").exists()
        assert store.events_path("exp-000001").exists()

        replayed = DurableStore(tmp_path / "service").replay()
        [exp] = replayed.experiments
        assert exp.id == "exp-000001" and exp.status == "done"
        assert set(exp.settles) == {"k1"}
        assert replayed.quota == {"a": 1.0}
        # compacted journal is minimal: submit + quota
        lines = store.journal_path.read_text().splitlines()
        assert len(lines) == 2

    def test_event_spill_reads_back_in_order(self, tmp_path):
        from repro.service import DurableStore

        store = DurableStore(tmp_path / "service")
        for i in range(1, 5):
            store.append_event("exp-000001", {"id": i, "event": "job", "data": {"n": i}})
        events = store.load_events("exp-000001")
        assert [e["id"] for e in events] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Recovery on boot
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_restart_serves_finished_experiment_without_resimulating(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = make_spec(kernels=("gzip", "mcf"))
        with BackgroundServer(workers=0, cache_dir=cache_dir) as first:
            client = Client(first.url)
            sub = client.submit(spec)
            client.wait(sub["id"])
            before_report = client.result(sub["id"])
            before_events = list(client.events(sub["id"]))

        with BackgroundServer(workers=0, cache_dir=cache_dir) as second:
            client = Client(second.url)
            status = client.status(sub["id"])  # original id survives
            assert status["status"] == "done"
            assert client.result(sub["id"]) == before_report
            assert list(client.events(sub["id"])) == before_events
            stats = client.stats()
            assert stats["durability"]["recovered"]["experiments"] == 1
            assert second.bench.simulations_run == 0  # nothing re-ran

    def test_mid_sweep_crash_recovery_is_bit_identical(self, tmp_path):
        # Forge the exact on-disk state a kill -9 mid-sweep leaves behind:
        # the submission journaled, one of three jobs settled (its result
        # in the run cache and its job event logged), no done event.
        from repro.experiments.cache import RunCache
        from repro.service import DurableStore, default_store_dir

        cache_dir = tmp_path / "cache"
        spec = make_spec(kernels=("gzip", "mcf", "gcc"))
        bench = Workbench(workers=0, cache=RunCache(cache_dir))
        jobs = spec.jobs(bench)
        bench.prefetch([jobs[0]])  # pre-crash: first job finished + cached

        store = DurableStore(default_store_dir(cache_dir))
        store.record_submit("exp-000007", "alice", 0, 100.0, spec.to_dict())
        store.append_event("exp-000007", _job_event(1, job_key(jobs[0])))
        store.close()

        with BackgroundServer(workers=0, cache_dir=cache_dir) as server:
            client = Client(server.url)
            final = client.wait("exp-000007")
            assert final["status"] == "done"
            assert final["jobs"]["total"] == 3 and final["jobs"]["failed"] == 0
            report = client.result("exp-000007")
            # only the two residual jobs simulate; the settled one rides
            # the cache
            assert server.bench.simulations_run == 2
            stats = client.stats()
            assert stats["durability"]["recovered"] == {
                "experiments": 1, "requeued_jobs": 2,
            }
            # one job event per key, ids dense across the restart
            events = list(client.events("exp-000007"))
            keys = [e["data"]["key"] for e in events if e["event"] == "job"]
            assert sorted(keys) == sorted({job_key(job) for job in jobs})
            assert [e["id"] for e in events] == list(range(1, len(events) + 1))
            # recovered ids stay authoritative: the next submission does
            # not collide
            fresh = client.submit(make_spec(name="after", kernels=("gcc",)))
            assert fresh["id"] == "exp-000008"

        serial = run_spec(Workbench(workers=0), spec)
        assert json.dumps(report["figure"], sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )

    def test_submit_only_journal_reruns_everything(self, tmp_path):
        # Crash before any settle: recovery owes the whole sweep.
        from repro.service import DurableStore, default_store_dir

        cache_dir = tmp_path / "cache"
        spec = make_spec(kernels=("gzip", "mcf"))
        store = DurableStore(default_store_dir(cache_dir))
        store.record_submit("exp-000001", "a", 0, 1.0, spec.to_dict())
        store.close()

        with BackgroundServer(workers=0, cache_dir=cache_dir) as server:
            client = Client(server.url)
            assert client.wait("exp-000001")["status"] == "done"
            assert server.bench.simulations_run == 2

    def test_corrupted_settle_is_quarantined_and_recomputed(self, tmp_path):
        from repro.service import DurableStore, default_store_dir

        cache_dir = tmp_path / "cache"
        spec = make_spec(kernels=("gzip", "mcf"))
        store = DurableStore(default_store_dir(cache_dir))
        store.record_submit("exp-000001", "a", 0, 1.0, spec.to_dict())
        store.close()
        spill = store.events_path("exp-000001")
        with open(spill, "a", encoding="utf-8") as fh:
            fh.write('{"id": 1, "event": "job", "data": {"key": "k1"')  # torn

        with BackgroundServer(workers=0, cache_dir=cache_dir) as server:
            client = Client(server.url)
            assert client.wait("exp-000001")["status"] == "done"
            assert server.bench.simulations_run == 2  # damaged settle recomputed
            assert spill.with_name(spill.name + ".corrupt").exists()
            assert client.stats()["durability"]["store"]["quarantined"] == 1

    def test_sse_last_event_id_replays_across_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = make_spec(kernels=("gzip", "mcf"))
        with BackgroundServer(workers=0, cache_dir=cache_dir) as first:
            client = Client(first.url)
            sub = client.submit(spec)
            client.wait(sub["id"])
            full = list(client.events(sub["id"]))
            assert len(full) >= 4

        with BackgroundServer(workers=0, cache_dir=cache_dir) as second:
            client = Client(second.url)
            # reconnect mid-journal, exactly as a dropped SSE client would
            resumed = list(client.events(sub["id"], after=full[1]["id"]))
            assert resumed == full[2:]
            assert list(client.events(sub["id"])) == full

    def test_quota_balances_survive_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = make_spec(clusters=(1, 2))  # cost 2
        with BackgroundServer(workers=0, cache_dir=cache_dir, quota=3) as first:
            client = Client(first.url, client_id="alice")
            sub = client.submit(spec)
            client.wait(sub["id"])

        with BackgroundServer(workers=0, cache_dir=cache_dir, quota=3) as second:
            client = Client(second.url, client_id="alice")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec)  # restart is not a free refill
            assert excinfo.value.code == "quota_exhausted"
            assert excinfo.value.detail["available"] == 1.0

    def test_store_schema_1_boots_from_its_event_log(self, tmp_path):
        # A repro.service_store/1 journal also held a settle line per job
        # and a terminal line, and its done event carried the sweep
        # manifest summary.  Both facts live in the event log, so those
        # journal lines quarantine as unknown entry types and the
        # experiment comes back as it finished.
        from repro.service import default_store_dir

        cache_dir = tmp_path / "cache"
        chaos.install(_MCF_FAILS)
        try:
            with BackgroundServer(workers=0, cache_dir=cache_dir) as first:
                client = Client(first.url)
                exp_id = client.submit(_two_jobs_one_failing())["id"]
                status = client.wait(exp_id)
                totals = client.result(exp_id)["totals"]
        finally:
            chaos.uninstall()
        assert status["jobs"]["failed"] == 1

        store = default_store_dir(cache_dir)
        journal = store / "journal.jsonl"
        log = store / "events" / f"{exp_id}.jsonl"
        [submit] = [json.loads(line) for line in journal.read_text().splitlines()]
        events = [json.loads(line) for line in log.read_text().splitlines()]
        events[-1]["data"]["manifest"] = {"jobs": 2, "completed": 1, "failed": 1, "resumed": 0}
        lines = [{**submit, "schema": "repro.service_store/1"}]
        for event in events:
            if event["event"] == "job":
                data = event["data"]
                lines.append({
                    "type": "settle", "id": exp_id, "key": data["key"],
                    "ok": data["status"] == "ok", "source": data["source"],
                    **({"failure": data["failure"]} if "failure" in data else {}),
                })
        lines.append({
            "type": "terminal", "id": exp_id, "status": "done",
            "finished": status["created"] + status["elapsed_seconds"],
        })
        journal.write_text("".join(json.dumps(line) + "\n" for line in lines))
        log.write_text("".join(json.dumps(event) + "\n" for event in events))

        with BackgroundServer(workers=0, cache_dir=cache_dir) as second:
            client = Client(second.url)
            assert client.status(exp_id) == status
            assert list(client.events(exp_id)) == events
            assert client.result(exp_id)["totals"] == totals
            assert second.bench.simulations_run == 0
            assert client.stats()["durability"]["store"]["quarantined"] == 3


_MCF_FAILS = chaos.ChaosConfig(
    rules=(chaos.FaultRule(mode="error", match={"kernel": "mcf"}),)
)


def _two_jobs_one_failing():
    """gzip and mcf on one machine; with ``_MCF_FAILS`` installed mcf fails."""
    return make_spec(
        name="two-jobs",
        kernels=("gzip", "mcf"),
        clusters=(2,),
        instructions=300,
        execution={"max_retries": 0},
    )


class TestCrashAtEveryAppend:
    def test_every_append_prefix_recovers_one_job_event_per_key(
        self, tmp_path, monkeypatch
    ):
        # Record every journal append of one finished experiment, then
        # boot a fresh cache dir on each prefix of them (the run cache
        # keeps the finished run's results, as it would after a kill -9
        # right after the prefix's last append).
        import shutil

        from repro.experiments import journal

        run_dir = tmp_path / "run"
        appends = []
        append = journal._append

        def recording(path, data):
            appends.append((path.relative_to(run_dir), data))
            append(path, data)

        chaos.install(_MCF_FAILS)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(journal, "_append", recording)
                with BackgroundServer(workers=0, cache_dir=run_dir) as server:
                    client = Client(server.url)
                    exp_id = client.submit(_two_jobs_one_failing())["id"]
                    assert client.wait(exp_id)["jobs"]["failed"] == 1
            # submit; status queued, status running, two jobs, done
            assert len(appends) == 6

            for k in range(len(appends) + 1):
                cache_dir = tmp_path / f"prefix-{k}"
                shutil.copytree(
                    run_dir, cache_dir, ignore=shutil.ignore_patterns("service")
                )
                for relative, data in appends[:k]:
                    path = cache_dir / relative
                    path.parent.mkdir(parents=True, exist_ok=True)
                    with open(path, "ab") as fh:
                        fh.write(data)
                with BackgroundServer(workers=0, cache_dir=cache_dir) as server:
                    client = Client(server.url)
                    if k == 0:  # the submission never reached the disk
                        with pytest.raises(ServiceError):
                            client.status(exp_id)
                        continue
                    client.wait(exp_id)
                    events = list(client.events(exp_id))
                names = [e["event"] for e in events]
                keys = [e["data"]["key"] for e in events if e["event"] == "job"]
                assert len(keys) == len(set(keys)) == 2, (k, names)
                assert names.count("done") == 1 and names[-1] == "done", (k, names)
                assert [e["id"] for e in events] == list(range(1, len(events) + 1))
        finally:
            chaos.uninstall()


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_sheds_503_checkpoints_and_resumes_after_restart(self, tmp_path):
        import time as _time

        cache_dir = tmp_path / "cache"
        spec = make_spec(name="drained", kernels=("gzip", "mcf"))
        chaos.install(
            chaos.ChaosConfig(
                rules=(chaos.FaultRule(mode="hang", match={"kernel": "gzip"}),),
                hang_seconds=1.5,
            )
        )
        try:
            with BackgroundServer(workers=0, cache_dir=cache_dir) as server:
                client = Client(server.url)
                sub = client.submit(spec)
                deadline = _time.monotonic() + 10
                while (
                    client.status(sub["id"])["status"] == "queued"
                    and _time.monotonic() < deadline
                ):
                    _time.sleep(0.02)
                server.request_drain()
                while (
                    client.readyz()["status"] != "draining"
                    and _time.monotonic() < deadline
                ):
                    _time.sleep(0.02)
                ready = client.readyz()
                assert ready["status"] == "draining" and ready["draining"]
                health = client.healthz()  # liveness stays green
                assert health["status"] == "ok" and health["draining"]
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(make_spec(name="late"))
                err = excinfo.value
                assert err.code == "draining" and err.status == 503
                assert err.detail["retry_after"] > 0
                validate_error(err.to_payload())
        finally:
            chaos.uninstall()

        # The drained server checkpointed: restart finishes the sweep
        # under its original id, bit-identical to an uninterrupted run.
        with BackgroundServer(workers=0, cache_dir=cache_dir) as server:
            client = Client(server.url)
            final = client.wait(sub["id"])
            assert final["status"] == "done" and final["jobs"]["failed"] == 0
            report = client.result(sub["id"])
            assert server.bench.simulations_run <= 1  # gzip settled pre-drain
        serial = run_spec(Workbench(workers=0), spec)
        assert json.dumps(report["figure"], sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_state_machine_open_half_open_close(self):
        from repro.experiments.executor import CircuitBreaker

        now = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=lambda: now[0])
        assert breaker.allow() and breaker.state == "closed"
        assert breaker.record_failure() is None
        assert breaker.record_failure() == "open"
        assert not breaker.allow()  # cooling down
        assert breaker.retry_after() == pytest.approx(10.0)
        now[0] += 10.0
        assert breaker.allow() and breaker.state == "half_open"
        assert not breaker.allow()  # one probe at a time
        assert breaker.record_failure() == "open"  # probe failed: back to open
        now[0] += 10.0
        assert breaker.allow()
        assert breaker.record_success() == "close"
        assert breaker.state == "closed" and breaker.failures == 0
        assert breaker.opens_total == 2
        snap = breaker.snapshot()
        assert snap["state"] == "closed" and snap["opens_total"] == 2

    def test_success_resets_consecutive_count(self):
        from repro.experiments.executor import CircuitBreaker

        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # not consecutive any more
        assert breaker.record_failure() is None
        assert breaker.state == "closed"


class _FakeExecutor:
    """Scriptable Executor for breaker unit tests."""

    def __init__(self, name="fake"):
        self.name = name
        self.calls = 0
        self.outcomes: list = []
        self.raise_exc: Exception | None = None
        self.closed = False

    def execute(self, jobs, **kwargs):
        self.calls += 1
        if self.raise_exc is not None:
            raise self.raise_exc
        return list(self.outcomes) or [
            SimpleNamespace(failure=None) for _ in jobs
        ]

    def close(self):
        self.closed = True


class _FakeTracer:
    def __init__(self):
        self.events: list[tuple[str, dict]] = []

    def event(self, name, **meta):
        self.events.append((name, meta))


class TestBreakerExecutor:
    def test_connect_failures_open_and_fall_back(self):
        from repro.experiments.executor import BreakerExecutor, CircuitBreaker
        from repro.experiments.outcomes import ExecutorUnavailable

        now = [0.0]
        primary, fallback, tracer = _FakeExecutor("distributed"), _FakeExecutor("local"), _FakeTracer()
        primary.raise_exc = ExecutorUnavailable("endpoint down")
        wrapped = BreakerExecutor(
            primary,
            fallback=fallback,
            breaker=CircuitBreaker(threshold=2, cooldown=5.0, clock=lambda: now[0]),
            tracer=tracer,
        )
        jobs = [object(), object()]
        assert wrapped.execute(jobs) is not None  # failure 1: falls back
        assert wrapped.execute(jobs) is not None  # failure 2: trips open
        assert wrapped.breaker.state == "open"
        assert primary.calls == 2
        wrapped.execute(jobs)  # open: straight to fallback, primary untouched
        assert primary.calls == 2 and fallback.calls == 3
        assert [n for n, _ in tracer.events] == ["service.breaker.open"]

        now[0] += 5.0  # cooldown over: half-open probe reaches primary
        primary.raise_exc = None
        wrapped.execute(jobs)
        assert primary.calls == 3
        assert wrapped.breaker.state == "closed"
        names = [n for n, _ in tracer.events]
        assert names == [
            "service.breaker.open",
            "service.breaker.half_open",
            "service.breaker.close",
        ]
        wrapped.close()
        assert primary.closed and fallback.closed

    def test_worker_lost_outcomes_count_as_failures(self):
        from repro.experiments.executor import BreakerExecutor, CircuitBreaker

        primary = _FakeExecutor("distributed")
        primary.outcomes = [
            SimpleNamespace(failure=SimpleNamespace(error_type="WorkerLost"))
        ]
        wrapped = BreakerExecutor(
            primary,
            fallback=_FakeExecutor("local"),
            breaker=CircuitBreaker(threshold=1, cooldown=60.0),
        )
        wrapped.execute([object()])
        assert wrapped.breaker.state == "open"

    def test_open_without_fallback_raises_unavailable(self):
        from repro.experiments.executor import BreakerExecutor, CircuitBreaker
        from repro.experiments.outcomes import ExecutorUnavailable

        primary = _FakeExecutor("distributed")
        primary.raise_exc = ConnectionError("refused")
        wrapped = BreakerExecutor(
            primary, breaker=CircuitBreaker(threshold=1, cooldown=60.0)
        )
        with pytest.raises(ExecutorUnavailable):
            wrapped.execute([object()])
        assert wrapped.breaker.state == "open"

    def test_hold_mode_respects_should_stop(self):
        from repro.experiments.executor import BreakerExecutor, CircuitBreaker
        from repro.experiments.outcomes import ExecutionInterrupted

        primary = _FakeExecutor("distributed")
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        breaker.record_failure()  # already open
        wrapped = BreakerExecutor(primary, breaker=breaker, hold_poll=0.01)
        with pytest.raises(ExecutionInterrupted):
            wrapped.execute([object()], should_stop=lambda: True)
        assert primary.calls == 0  # never reached the dead backend

    def test_unreachable_workers_endpoint_degrades_to_local(self, tmp_path):
        # Service-level: bind the endpoint port first so the distributed
        # coordinator cannot (EADDRINUSE), then watch the breaker open and
        # the sweep complete on the local fallback regardless.
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with BackgroundServer(
                workers=0,
                cache_dir=tmp_path / "cache",
                executor="distributed",
                workers_endpoint=f"127.0.0.1:{port}",
                breaker_threshold=1,
                breaker_cooldown=300.0,
            ) as server:
                client = Client(server.url)
                spec = make_spec(kernels=("gzip", "mcf"))
                report = client.run(spec)
                assert report["totals"].get("failed", 0) == 0
                snap = client.stats()["durability"]["breaker"]
                assert snap["state"] == "open" and snap["opens_total"] == 1
                ready = client.readyz()  # degraded but still ready
                assert ready["status"] == "ready"
                assert ready["breaker"]["state"] == "open"
        finally:
            blocker.close()

        serial = run_spec(Workbench(workers=0), spec)
        assert json.dumps(report["figure"], sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_controller_caps_and_force(self):
        from repro.service import AdmissionController

        control = AdmissionController(max_queue_depth=2, max_client_inflight=1)
        control.admit("a")
        with pytest.raises(ServiceError) as excinfo:
            control.admit("a")  # per-client cap
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.detail["reason"] == "client_inflight"
        control.admit("b")
        with pytest.raises(ServiceError) as excinfo:
            control.admit("c")  # global cap
        assert excinfo.value.detail["reason"] == "queue_full"
        control.admit("c", force=True)  # recovery bypasses caps but counts
        assert control.inflight == 3
        snap = control.snapshot()
        assert snap["enabled"] and snap["inflight"] == 3
        control.release("a")
        with pytest.raises(ServiceError):
            control.admit("a")  # forced slot still occupies the queue
        control.release("c")
        control.admit("a")  # slot freed
        assert control.inflight == 2
        assert control.shed_total == 3

    def test_per_client_inflight_cap_sheds_503(self, tmp_path):
        chaos.install(
            chaos.ChaosConfig(
                rules=(chaos.FaultRule(mode="hang", match={"kernel": "gzip"}),),
                hang_seconds=1.5,
            )
        )
        try:
            with BackgroundServer(
                workers=0, cache_dir=tmp_path / "cache", max_client_inflight=1
            ) as server:
                client = Client(server.url, client_id="greedy")
                slow = client.submit(make_spec(name="slow", kernels=("gzip",)))
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(make_spec(name="eager", kernels=("mcf",)))
                err = excinfo.value
                assert err.code == "overloaded" and err.status == 503
                assert err.detail["reason"] == "client_inflight"
                validate_error(err.to_payload())
                # other tenants are unaffected by one client's backlog
                other = Client(server.url, client_id="patient")
                sub = other.submit(make_spec(name="other", kernels=("gcc",)))
                client.wait(slow["id"])
                other.wait(sub["id"])
                # terminal experiments release their slot
                retry = client.submit(make_spec(name="eager2", kernels=("mcf",)))
                assert client.wait(retry["id"])["status"] == "done"
        finally:
            chaos.uninstall()


# ---------------------------------------------------------------------------
# Bounded event journal (memory spill + read-through)
# ---------------------------------------------------------------------------


class TestEventBound:
    def test_journal_spills_to_store_and_replays_through(self, tmp_path):
        with BackgroundServer(
            workers=0, cache_dir=tmp_path / "cache", max_events_memory=2
        ) as server:
            client = Client(server.url)
            spec = make_spec(kernels=("gzip", "mcf", "gcc"))
            sub = client.submit(spec)
            client.wait(sub["id"])

            record = server._records[sub["id"]]
            assert record.events_total >= 5  # status x2, 3 jobs, done
            assert len(record.events) <= 2  # memory stays bounded
            assert record.events_base == record.events_total - len(record.events)
            assert len(server.store.load_events(sub["id"])) == record.events_total

            full = list(client.events(sub["id"]))
            assert [e["id"] for e in full] == list(range(1, record.events_total + 1))
            # Last-Event-ID landing inside the spilled prefix reads through
            resumed = list(client.events(sub["id"], after=1))
            assert resumed == full[1:]
            # status payload counts the whole journal, not just memory
            assert client.status(sub["id"])["events"] == record.events_total


# ---------------------------------------------------------------------------
# SIGKILL acceptance: crash mid-sweep, restart, bit-identical completion
# ---------------------------------------------------------------------------


def _journal_settles(events_path) -> set[str]:
    """Keys with a ``job`` event in one experiment's spilled event log."""
    if not events_path.exists():
        return set()
    keys = set()
    for line in events_path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and entry.get("event") == "job":
            keys.add(entry["data"]["key"])
    return keys


class TestSigkillRecovery:
    def _spawn(self, cache_dir):
        import os
        import pathlib
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = proc.stdout.readline()
        assert "repro service listening on " in line, line
        url = line.split("repro service listening on ", 1)[1].split()[0]
        return proc, url

    def test_kill_9_mid_sweep_restart_completes_bit_identical(self, tmp_path):
        import os
        import signal
        import time as _time

        from repro.service import default_store_dir

        cache_dir = tmp_path / "cache"
        spec = make_spec(
            name="killed",
            kernels=("gzip", "mcf", "gcc"),
            clusters=(1, 2),
            instructions=8000,
        )
        total = 6

        proc, url = self._spawn(cache_dir)
        try:
            client = Client(url, client_id="chaos-monkey")
            client.wait_ready(timeout=30)
            sub = client.submit(spec)
            exp_id = sub["id"]
            event_log = default_store_dir(cache_dir) / "events" / f"{exp_id}.jsonl"
            deadline = _time.monotonic() + 120
            while len(_journal_settles(event_log)) < 2:
                assert _time.monotonic() < deadline, "sweep never reached 2 settles"
                assert proc.poll() is None, "server died on its own"
                _time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)  # no goodbye
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        settled = _journal_settles(event_log)
        assert settled and len(settled) < total + 1

        proc, url = self._spawn(cache_dir)
        try:
            client = Client(url, client_id="chaos-monkey")
            client.wait_ready(timeout=30)
            final = client.wait(exp_id, timeout=300, poll=0.1)
            assert final["status"] == "done"
            assert final["jobs"]["total"] == total
            assert final["jobs"]["failed"] == 0
            report = client.result(exp_id)
            stats = client.stats()
            # exactly-once across the crash: settled jobs are cache hits,
            # only the residue simulates again
            assert stats["simulations_run"] <= total - len(settled)
            assert stats["durability"]["recovered"]["experiments"] == 1
            events = list(client.events(exp_id))
            names = [e["event"] for e in events]
            keys = [e["data"]["key"] for e in events if e["event"] == "job"]
            assert len(keys) == len(set(keys)) == total
            assert names.count("done") == 1 and names[-1] == "done"
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except Exception:
                proc.kill()
                proc.wait(timeout=30)

        serial = run_spec(Workbench(workers=0), spec)
        assert json.dumps(report["figure"], sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
