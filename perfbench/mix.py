"""``repro serve`` in process, driven by two closed-loop clients.

The server runs with ``workers=0`` and the durable store on.  Each
client takes the next spec of one shared seeded stream of small
free-form sweeps over the ``specs/hetero_sweep.json`` grid, submits it,
follows SSE to ``done`` and fetches the result, then takes the next.
Affinity steering and the FP-less machine run on the event engine, the
rest batched.  Requests overlap, so coalescing, memory hits and fresh
simulations all occur.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from pathlib import Path

from common import Sample, cycle_digest, cycles
from repro.experiments.harness import Workbench
from repro.experiments.sweep import run_spec
from repro.service.client import Client
from repro.service.errors import ServiceError
from repro.service.server import BackgroundServer
from repro.specs import ExperimentSpec

INSTRUCTIONS = 400
DATA_SEEDS = 4  # per kernel
# Requests per second of the closed loop on the reference host;
# ``--seconds`` times it is the number of requests a run makes.
REQUESTS_PER_S = 6.0
DIGEST_REQUESTS = 24  # leading requests the cycle digest covers
CLIENTS = 2


def _hetero_grid(root: Path):
    """Kernels and (machine payload, policy) pairs of the hetero sweep."""
    data = json.loads((root / "specs" / "hetero_sweep.json").read_text())
    pairs = [
        (machine, policy)
        for sweep in data["sweeps"]
        for machine in sweep["machines"]
        for policy in sweep["policies"]
    ]
    return data["workloads"], pairs


def stream(root: Path, seed: int, length: int) -> list[dict]:
    """A seeded stream of small free-form sweeps over the hetero grid.

    Each request is one (kernel, data seed) trace with three
    (machine, policy) pairs.  Once a trace has been requested, every later
    request on it repeats one of its earlier pairs and adds up to two
    fresh ones, so no request is a pure cache hit and request sizes stay
    alike (a varied mix moves the tail from seed to seed).  Half the time the
    next request reuses the previous trace, so requests that overlap in
    the service share keys and coalesce.  A longer stream extends a
    shorter one of the same seed.  It ends early if every pair of every
    trace has been requested.
    """
    rng = random.Random(seed)
    kernels, pairs = _hetero_grid(root)
    data_seeds = rng.sample(range(1, 1 << 16), DATA_SEEDS)
    traces = [(kernel, data_seed) for kernel in kernels for data_seed in data_seeds]
    used: dict[tuple, list[int]] = {trace: [] for trace in traces}
    specs: list[dict] = []
    previous = None
    for index in range(length):
        open_traces = [t for t in traces if len(used[t]) < len(pairs)]
        if not open_traces:
            break
        if previous in open_traces and rng.random() < 0.5:
            trace = previous
        else:
            trace = rng.choice(open_traces)
        seen = used[trace]
        fresh = [p for p in range(len(pairs)) if p not in seen]
        if seen:
            chosen = rng.sample(seen, 1) + rng.sample(fresh, min(len(fresh), 2))
        else:
            chosen = rng.sample(fresh, 3)
        rng.shuffle(chosen)
        seen.extend(p for p in chosen if p not in seen)
        kernel, data_seed = trace
        specs.append(
            {
                "schema": "repro.experiment_spec/1",
                "name": f"mix-{index:04d}",
                "instructions": INSTRUCTIONS,
                "workloads": [{"kernel": kernel, "seed": data_seed}],
                "sweeps": [
                    {"machines": [pairs[p][0]], "policies": [pairs[p][1]]}
                    for p in chosen
                ],
            }
        )
        previous = trace
    return specs


def _server(cache_dir: Path) -> BackgroundServer:
    return BackgroundServer(workers=0, cache_dir=str(cache_dir), durable=True)


def setup(root: Path, cache_dir: Path, ready) -> None:
    """Server construction, store replay and readiness."""
    with _server(cache_dir) as server:
        Client(server.url).wait_ready()
        ready()


def _canonical(figure) -> str:
    # NaN-safe, key-order-insensitive comparison text.
    return json.dumps(figure, sort_keys=True)


class ServiceMix:
    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.errors: list[str] = []
        self.figures: list[tuple[int, dict]] = []  # (stream index, figure)
        self.loop_s = 0.0
        self._phase = 0
        self._stats: dict = {}

    def setup_dir(self, index: int) -> Path:
        return self.work / f"setup-{index}"

    def requests_for(self, seconds: float) -> int:
        return max(DIGEST_REQUESTS, round(seconds * REQUESTS_PER_S))

    def prepare(self) -> None:
        """The reference runs after the loop, for the requests made."""

    def run(self, count: int, trace=None) -> list[Sample]:
        self.stream = stream(self.root, self.seed, count)
        self._phase += 1
        cache_dir = self.work / f"service-{self._phase}"
        samples: list[Sample] = []
        lock = threading.Lock()
        issued = 0

        def next_index() -> int | None:
            nonlocal issued
            with lock:
                if issued == len(self.stream):
                    return None
                issued += 1
                return issued - 1

        with _server(cache_dir) as server:
            Client(server.url).wait_ready()

            def client_loop(number: int) -> None:
                client = Client(server.url, client_id=f"bench-{number}")
                while (index := next_index()) is not None:
                    sample, figure = self._request(client, index)
                    with lock:
                        samples.append(sample)
                        if figure is not None:
                            self.figures.append((index, figure))

            threads = [
                threading.Thread(target=client_loop, args=(n,), daemon=True)
                for n in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
                if thread.is_alive():
                    raise RuntimeError("a service client did not finish")
            self.loop_s = time.perf_counter() - start
            self._stats = {
                "stats": Client(server.url).stats(),
                "appends": server.store.appends,
                "journal_bytes": server.store.journal_path.stat().st_size,
            }
            if trace is not None:
                trace.measure_stored_entries()
        shutil.rmtree(cache_dir)
        return samples

    def _request(self, client: Client, index: int) -> tuple[Sample, dict | None]:
        spec = self.stream[index]
        jobs = len(spec["sweeps"])
        start = time.perf_counter()
        try:
            exp_id = client.submit(spec)["id"]
            submitted = time.perf_counter()
            first_job = None
            failed = 0
            final = None
            events = client.events(exp_id)
            try:
                for event in events:
                    if event["event"] == "job":
                        first_job = first_job or time.perf_counter()
                        failed += event["data"]["status"] != "ok"
                    elif event["event"] in ("done", "error"):
                        final = event["event"]
                        break
            finally:
                events.close()
            settled = time.perf_counter()
            result = client.result(exp_id)
            finished = time.perf_counter()
        except (ServiceError, OSError) as exc:  # refused, errored, or unreachable
            self.errors.append(f"request {index}: {type(exc).__name__}: {exc}")
            return Sample(time.perf_counter() - start, jobs, jobs), None
        if final != "done":
            self.errors.append(f"request {index}: experiment ended {final!r}")
            failed = jobs
        sample = Sample(
            finished - start,
            jobs,
            failed,
            submit_s=submitted - start,
            queue_wait_s=(first_job or settled) - start,
            result_s=finished - settled,
        )
        return sample, result.get("figure")

    def check(self) -> None:
        """Untimed: every fetched figure against a cache-off run."""
        bench = Workbench(instructions=INSTRUCTIONS)
        expected: dict[int, str] = {}

        def reference(index: int) -> str:
            if index not in expected:
                spec = ExperimentSpec.from_dict(self.stream[index])
                expected[index] = _canonical(run_spec(bench, spec).to_dict())
            return expected[index]

        for index, figure in self.figures:
            if _canonical(figure) != reference(index):
                self.errors.append(f"request {index}: figure differs from reference")
        rows = []
        for index in range(DIGEST_REQUESTS):
            reference(index)
            spec = ExperimentSpec.from_dict(self.stream[index])
            rows.extend(cycles(bench, spec.jobs(bench)))
        self.digest = cycle_digest(dict(rows).items())

    def service_metrics(self) -> dict:
        """Service ratios from ``/v1/stats`` plus the durable store."""
        stats = self._stats["stats"]
        jobs = stats["jobs"]
        total = jobs["claimed"] + jobs["coalesced"] + jobs["cached"]
        memory_hits = max(jobs["cached"] - stats["cache"]["hits"], 0)
        return {
            "service.coalesced_ratio": jobs["coalesced"] / total if total else 0.0,
            "service.memory_hit_ratio": memory_hits / total if total else 0.0,
            "service.durable.appends": self._stats["appends"],
            "service.durable.journal_bytes": self._stats["journal_bytes"],
        }

    def report_lines(self) -> list[str]:
        return [
            f"cycle digest (cache-off reference, first {DIGEST_REQUESTS} "
            f"requests of stream seed {self.seed}): {self.digest}"
        ]
