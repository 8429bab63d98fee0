"""Per-layer attribution for the traced benchmark run.

Nothing in ``src/`` is instrumented.  :func:`install` wraps the public
entry points of each layer from the outside, patching each name where its
caller looks it up (a module global, a class attribute, or the figure
registry), and returns a :class:`Patches` whose ``restore()`` puts every
original back.  Untraced runs never call :func:`install`.

Each wrapper opens a span on a per-thread stack.  A span's *self* time is
its duration minus the time of the spans nested inside it, so self times
of all layers plus the time spent outside any span add up to wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

# Span names whose self time is reported as ``<name>_s``.
_SELF_TIMED = (
    "vm.prepare",
    "core.batched.precompute",
    "core.batched.warmup",
    "core.batched.simulate",
    "core.simulator.run",
    "core.serialize.encode",
    "core.serialize.decode",
    "experiments.cache.store",
    "experiments.cache.load",
    "experiments.manifest.save",
    "criticality.analyze",
    "experiments.fig14.render",
    "service.execute",
    "service.build_result",
)
_EXECUTOR = "experiments.executor"
# Time spent blocked on another thread's work: reported, but not part of
# the wall-time sum (the work it waited for is already counted).
_LOCK_WAIT = "service.lock_wait"


class LayerTrace:
    """Self time per layer plus named counters, safe across threads."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.stored: list = []  # (RunCache, RunJob) per store, sized later
        self.entry_sizes: list[tuple[int, int]] = []  # (gz bytes, json bytes)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, layer: str, func, *args, **kwargs):
        """Run ``func`` inside a ``layer`` span; returns its result."""
        stack = self._stack()
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - frame[1]

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def measure_stored_entries(self) -> None:
        """Size every entry stored since the last call (untimed).

        The uncompressed JSON size comes from the gzip trailer (ISIZE,
        the input length mod 2**32), so no entry is decompressed.
        """
        from repro.experiments.cache import job_key

        stored, self.stored = self.stored, []
        for cache, job in stored:
            path = cache.path_for(job_key(job))
            with open(path, "rb") as handle:
                handle.seek(-4, 2)
                json_bytes = int.from_bytes(handle.read(4), "little")
                gz_bytes = handle.tell()
            self.entry_sizes.append((gz_bytes, json_bytes))

    def self_total(self) -> float:
        """Busy self time of every layer (waiting excluded)."""
        return sum(v for k, v in self.self_s.items() if k != _LOCK_WAIT)

    def metrics(self, wall_s: float, overhead_s: float, service: dict) -> dict:
        """Every per-layer metric of ``BENCHMARK.json``; skipped layers read 0."""
        values: dict[str, float] = {
            f"{layer}_s": self.self_s.get(layer, 0.0) for layer in _SELF_TIMED
        }
        values["experiments.executor.self_s"] = self.self_s.get(_EXECUTOR, 0.0)
        values["service.lock_wait_s"] = self.self_s.get(_LOCK_WAIT, 0.0)
        counts = self.counts
        values["vm.prepare_calls"] = counts["vm.prepare"]
        for engine, seconds in (
            ("core.batched", values["core.batched.simulate_s"]),
            ("core.simulator", values["core.simulator.run_s"]),
        ):
            values[f"{engine}.jobs"] = counts[f"{engine}.jobs"]
            cycles = counts[f"{engine}.cycles"]
            values[f"{engine}.cycles_per_s"] = cycles / seconds if seconds else 0.0
        sizes = self.entry_sizes
        values["experiments.cache.entry_bytes"] = (
            sum(gz for gz, _ in sizes) / len(sizes) if sizes else 0.0
        )
        values["core.serialize.json_bytes"] = (
            sum(raw for _, raw in sizes) / len(sizes) if sizes else 0.0
        )
        hits, misses = counts["cache.hits"], counts["cache.misses"]
        values["experiments.cache.hits"] = hits
        values["experiments.cache.misses"] = misses
        values["experiments.cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        values["experiments.manifest.saves"] = counts["manifest.saves"]
        values["criticality.records"] = counts["criticality.records"]
        values["experiments.executor.jobs_run"] = counts["executor.jobs_run"]
        values["experiments.harness.memory_hits"] = counts["harness.memory_hits"]
        for name in (
            "service.submit_s",
            "service.queue_wait_s",
            "service.result_s",
            "service.coalesced_ratio",
            "service.memory_hit_ratio",
            "service.durable.appends",
            "service.durable.journal_bytes",
        ):
            values[name] = service.get(name, 0.0)
        values["trace.wall_s"] = wall_s
        values["trace.remainder_s"] = wall_s - self.self_total()
        values["trace.overhead_s"] = overhead_s
        return values


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._undo: list = []

    def replace(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            old = owner[name]
            owner[name] = value
            self._undo.append(lambda: owner.__setitem__(name, old))
            return
        # vars() keeps a classmethod/staticmethod wrapper intact on undo.
        old = vars(owner)[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class _WaitTimedLock:
    """A lock whose acquisition wait is a ``service.lock_wait`` span."""

    def __init__(self, trace: LayerTrace, lock):
        self._trace = trace
        self._lock = lock

    def __enter__(self):
        self._trace.call(_LOCK_WAIT, self._lock.acquire)
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


def _spanned(trace: LayerTrace, layer: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return trace.call(layer, func, *args, **kwargs)

    return wrapper


def install(trace: LayerTrace) -> Patches:
    """Wrap every layer's entry points; ``restore()`` the result after."""
    import fig14 as figure14_workload
    import repro.analysis.breakdown as breakdown
    import repro.experiments as experiments
    import repro.experiments.batch as batch
    import repro.experiments.cache as cache
    import repro.experiments.harness as harness
    import repro.experiments.parallel as parallel
    from repro.core.batched import TracePrecompute
    from repro.core.simulator import ClusteredSimulator
    from repro.experiments.manifest import SweepManifest
    from repro.service.server import ReproServer

    patches = Patches()

    # vm: interpreter + rename + gshare, looked up by each caller module.
    prepare = parallel.prepare_workload

    def prepare_workload(*args, **kwargs):
        trace.count("vm.prepare")
        return trace.call("vm.prepare", prepare, *args, **kwargs)

    for module in (harness, batch, parallel):
        patches.replace(module, "prepare_workload", prepare_workload)

    # core.batched: precompute, the canonical warm-up, the measured loop.
    from_prepared = vars(TracePrecompute)["from_prepared"].__func__
    patches.replace(
        TracePrecompute,
        "from_prepared",
        classmethod(_spanned(trace, "core.batched.precompute", from_prepared)),
    )
    patches.replace(
        batch,
        "warm_suite",
        _spanned(trace, "core.batched.warmup", batch.warm_suite),
    )
    simulate_batched = batch.simulate_batched

    def simulate(*args, **kwargs):
        if trace.current() == "core.batched.warmup":
            return simulate_batched(*args, **kwargs)  # warm-up's own pass
        result = trace.call("core.batched.simulate", simulate_batched, *args, **kwargs)
        trace.count("core.batched.jobs")
        trace.count("core.batched.cycles", result.cycles)
        return result

    patches.replace(batch, "simulate_batched", simulate)

    # core.simulator: the event engine (warm-up and measured runs).
    event_run = ClusteredSimulator.run

    def run(self, *args, **kwargs):
        result = trace.call("core.simulator.run", event_run, self, *args, **kwargs)
        trace.count("core.simulator.cycles", result.cycles)
        return result

    patches.replace(ClusteredSimulator, "run", run)
    execute_job = parallel.execute_job

    def counted_execute_job(job, *args, **kwargs):
        if job.sim == "event":
            trace.count("core.simulator.jobs")
        return execute_job(job, *args, **kwargs)

    patches.replace(parallel, "execute_job", counted_execute_job)

    # core.serialize, as the run cache calls it.
    patches.replace(
        cache,
        "result_to_dict",
        _spanned(trace, "core.serialize.encode", cache.result_to_dict),
    )
    patches.replace(
        cache,
        "result_from_dict",
        _spanned(trace, "core.serialize.decode", cache.result_from_dict),
    )

    # experiments.cache
    store, load = cache.RunCache.store, cache.RunCache.load

    def cache_store(self, job, result):
        trace.call("experiments.cache.store", store, self, job, result)
        trace.stored.append((self, job))

    def cache_load(self, job):
        result = trace.call("experiments.cache.load", load, self, job)
        trace.count("cache.misses" if result is None else "cache.hits")
        return result

    patches.replace(cache.RunCache, "store", cache_store)
    patches.replace(cache.RunCache, "load", cache_load)

    # experiments.manifest
    save = SweepManifest.save

    def manifest_save(self, *args, **kwargs):
        trace.count("manifest.saves")
        return trace.call("experiments.manifest.save", save, self, *args, **kwargs)

    patches.replace(SweepManifest, "save", manifest_save)

    # criticality, where cpi_breakdown looks it up.
    analyze = breakdown.analyze_critical_path

    def analyze_critical_path(records, *args, **kwargs):
        trace.count("criticality.records", len(records))
        return trace.call("criticality.analyze", analyze, records, *args, **kwargs)

    patches.replace(breakdown, "analyze_critical_path", analyze_critical_path)

    # experiments.fig14: run_spec finds the runner in the registry.
    patches.replace(
        experiments.EXPERIMENTS,
        "figure14",
        _spanned(trace, "experiments.fig14.render", experiments.EXPERIMENTS["figure14"]),
    )
    patches.replace(
        figure14_workload,
        "render_text",
        _spanned(trace, "experiments.fig14.render", figure14_workload.render_text),
    )

    # experiments.executor (Workbench.prefetch) and harness memory hits.
    prefetch, outcome = harness.Workbench.prefetch, harness.Workbench.outcome

    def workbench_prefetch(self, jobs, *args, **kwargs):
        jobs = list(jobs)
        in_memory = sum(1 for job in dict.fromkeys(jobs) if self.result_for(job) is not None)
        trace.count("harness.memory_hits", in_memory)
        ran = trace.call(_EXECUTOR, prefetch, self, jobs, *args, **kwargs)
        trace.count("executor.jobs_run", ran)
        return ran

    def workbench_outcome(self, *args, **kwargs):
        out = outcome(self, *args, **kwargs)
        if out.source == "memory":
            trace.count("harness.memory_hits")
        return out

    patches.replace(harness.Workbench, "prefetch", workbench_prefetch)
    patches.replace(harness.Workbench, "outcome", workbench_outcome)

    # service: the worker thread's sweep and result assembly.  Both run
    # under the server's bench lock; waiting for it is not busy time.
    server_init = ReproServer.__init__

    def init(self, *args, **kwargs):
        server_init(self, *args, **kwargs)
        self._bench_lock = _WaitTimedLock(trace, self._bench_lock)

    patches.replace(ReproServer, "__init__", init)
    patches.replace(
        ReproServer,
        "_execute_jobs",
        _spanned(trace, "service.execute", ReproServer._execute_jobs),
    )
    patches.replace(
        ReproServer,
        "_build_result",
        _spanned(trace, "service.build_result", ReproServer._build_result),
    )
    return patches
