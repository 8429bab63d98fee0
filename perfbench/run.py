#!/usr/bin/env python3
"""The repository's end-to-end benchmark, with a per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload fig14_cold --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fig14_cold`` -- ``repro --spec specs/figure14.json`` in process, on an
  empty run cache and manifest: the write side of the cache;
* ``fig14_warm`` -- the same spec with cache and manifest filled before
  timing: the read side, zero simulations;
* ``service_mix`` -- ``repro serve`` in process, two closed-loop clients
  submitting a seeded stream of small sweeps over the hetero grid.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then replays the same number of requests with every
layer's entry points wrapped (``layers.py``) and prints the per-layer
metrics.  Either way every request's output is checked against a
cache-off reference computed in this process, and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (jobs)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = {
    "fig14_cold": ("fig14", "Figure14", {"warm": False}),
    "fig14_warm": ("fig14", "Figure14", {"warm": True}),
    "service_mix": ("mix", "ServiceMix", {}),
}
SETUP_RUNS = 9
# A failed request misses every latency limit; JSON has no infinity.
MISSED_LATENCY_S = 1e9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        metavar="CACHE_DIR",
        help=argparse.SUPPRESS,  # internal: one set-up, timed by the parent
    )
    return parser.parse_args(argv)


def load_module(workload: str):
    module_name, class_name, kwargs = WORKLOADS[workload]
    module = importlib.import_module(module_name)
    return module, getattr(module, class_name), kwargs


def setup_probe(root: Path, workload: str, cache_dir: str) -> int:
    """Child side of ``setup_s``: import, construct, say ready, exit."""
    module, _, _ = load_module(workload)

    def ready() -> None:
        print("ready", flush=True)

    module.setup(root, Path(cache_dir), ready)
    return 0


def measure_setup(root: Path, workload: str, dirs, host) -> list[float]:
    """Process start to ready-to-submit, once per directory in ``dirs``."""
    times = []
    for cache_dir in dirs:
        host.sample()
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--setup-probe",
            str(cache_dir),
        ]
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return times


def sampled(host, func, *args):
    """Call ``func`` while a thread samples host speed every half second."""
    stop = threading.Event()
    sampler = threading.Thread(target=host.sample_every, args=(0.5, stop))
    sampler.start()
    try:
        return func(*args)
    finally:
        stop.set()
        sampler.join()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile at or above the median
    with at least ten samples beyond it.

    With twenty or fewer samples only the median qualifies.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def finite(value: float) -> float:
    return MISSED_LATENCY_S if math.isinf(value) else value


def end_to_end(samples, loop_s: float, setup: list[float], host) -> tuple[dict, list[str]]:
    """The end-to-end metrics; times are scaled by the run's host speed."""
    latencies = [sample.latency for sample in samples]
    jobs = sum(sample.jobs for sample in samples)
    failed = sum(sample.failed_jobs for sample in samples)
    ok = sum(1 for sample in samples if not sample.failed_jobs)
    tail_value, percentile = tail(latencies)
    raw = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "sweeps_per_s": ok / loop_s,
    }
    scale = host.scale()
    values = {
        "setup_s": raw["setup_s"] * scale,
        "latency_p50_s": finite(raw["latency_p50_s"] * scale),
        "latency_tail_s": finite(raw["latency_tail_s"] * scale),
        "sweeps_per_s": raw["sweeps_per_s"] / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - failed / jobs,
    }
    notes = [
        f"requests: {len(samples)} ({ok} ok) over {loop_s:.3f} s of closed loop",
        f"latency_tail_s is p{percentile:.1f} of {len(samples)} samples",
        f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}",
        f"host speed scale {scale:.4f} (median of {len(host.samples)} samples); "
        "unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    return values, notes


def per_layer(workload, samples, untraced_s: float, trace) -> tuple[dict, list[str]]:
    service = dict(workload.service_metrics())
    served = [s for s in samples if not s.failed_jobs]
    for name in ("submit_s", "queue_wait_s", "result_s"):
        values = [getattr(s, name) for s in served]
        service[f"service.{name}"] = statistics.median(values) if values else 0.0
    traced_s = workload.loop_s
    values = trace.metrics(traced_s, traced_s - untraced_s, service)
    notes = [
        f"traced wall {traced_s:.4f} s vs untraced {untraced_s:.4f} s over "
        f"{len(samples)} requests (host time, not scaled)",
        "self times + trace.remainder_s = trace.wall_s",
    ]
    return values, notes


def run(root: Path, args) -> dict:
    config = json.loads((root / "BENCHMARK.json").read_text())
    _, cls, kwargs = load_module(args.workload)
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = cls(root, work, args.seed, **kwargs)
        workload.prepare()
        count = workload.requests_for(args.seconds)
        if args.trace:
            samples = workload.run(count)
            untraced_s = workload.loop_s
            import layers

            trace = layers.LayerTrace()
            patches = layers.install(trace)
            try:
                samples = workload.run(count, trace=trace)
            finally:
                patches.restore()
            values, notes = per_layer(workload, samples, untraced_s, trace)
            wanted = config["per_layer"]
        else:
            from common import HostSpeed

            host = HostSpeed()
            setup = measure_setup(
                root,
                args.workload,
                [workload.setup_dir(i) for i in range(SETUP_RUNS)],
                host,
            )
            samples = sampled(host, workload.run, count)
            values, notes = end_to_end(samples, workload.loop_s, setup, host)
            wanted = config["end_to_end"]
        workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run shares it
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    for line in notes + workload.report_lines() + workload.errors:
        print(line)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not workload.errors,
        "attempted": sum(sample.jobs for sample in samples),
        "failed": sum(sample.failed_jobs for sample in samples),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "specs").is_dir():
        print(
            "perfbench: run from the repository root (src/repro and specs/ "
            "are missing here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        return setup_probe(root, args.workload, args.setup_probe)
    print(json.dumps(run(root, args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
