"""Command-line experiment runner.

Regenerate any reproduced figure from a shell::

    repro figure4
    repro figure14 --instructions 20000 --out results/
    repro all --benchmarks vpr gzip
    repro all --seeds 3 --workers 8
    repro --list-figures
    repro --spec specs/custom_sweep.json

This module is the default subcommand of the ``repro`` console command
(:mod:`repro.cli`), which also adds ``repro specs|serve|worker``.
Experiment names are the keys of :data:`repro.experiments.EXPERIMENTS`;
``--spec`` runs any :class:`~repro.specs.ExperimentSpec` JSON file
through the same machinery.

Simulations fan out over ``--workers`` processes and persist in an
on-disk result cache (``~/.cache/repro`` by default; override with
``--cache-dir`` or ``REPRO_CACHE_DIR``, disable with ``--no-cache``).
Parallel and cached runs are bit-identical to serial uncached ones; a
repeat invocation with a warm cache re-executes zero simulations, which
the per-experiment ``cache hits=... simulated=...`` line makes visible.

Observability flags (:mod:`repro.telemetry`):

* ``--metrics`` attaches per-run telemetry and writes a validated JSON
  run report (``<figure>_report.json``) next to the figure outputs;
* ``--trace-out FILE`` writes the span trace (wall time per stage) as
  JSON;
* ``--profile`` prints the span summary table after the run.

Output modes: ``--json`` alone streams each figure as a JSON document on
stdout (status lines move to stderr); with ``--out`` it keeps the
human-readable stdout and additionally writes ``<figure>.json`` files.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.experiments import EXPERIMENTS, PLANS
from repro.experiments.aggregate import run_seeded
from repro.experiments.cache import RunCache, default_cache_dir
from repro.experiments.executor import executor_names
from repro.experiments.harness import DEFAULT_INSTRUCTIONS, Workbench
from repro.experiments.manifest import SweepManifest, default_manifest_dir
from repro.experiments.outcomes import ExecutionPolicy, RunFailureError
from repro.experiments.sweep import run_report, run_spec
from repro.specs import ExperimentSpec, SpecError, load_spec, spec_hash
from repro.workloads.suite import get_kernel, suite_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and in-text claims.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"one or more of: {', '.join(EXPERIMENTS)}, or 'all'",
    )
    parser.add_argument(
        "--list-figures",
        action="store_true",
        help="print the known experiment names and exit",
    )
    parser.add_argument(
        "--spec",
        action="append",
        type=pathlib.Path,
        default=[],
        metavar="FILE",
        dest="specs",
        help="run an ExperimentSpec JSON file (repeatable; see the specs/ "
        "directory for examples and 'repro specs' for tooling)",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=DEFAULT_INSTRUCTIONS,
        help="dynamic instructions per benchmark kernel "
        f"(default {DEFAULT_INSTRUCTIONS})",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="KERNEL",
        help=f"restrict the suite (default: all 12); from: {', '.join(suite_names())}",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload data seed")
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="average over this many seeds (the paper averages 3 samples)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan independent simulations out over this many worker "
        "processes (default 0 = serial; results are bit-identical)",
    )
    parser.add_argument(
        "--executor",
        choices=executor_names(),
        default="local",
        help="execution backend: 'local' runs jobs on this machine's "
        "process pool; 'distributed' shards them over external "
        "'repro worker' processes at --workers-endpoint (default local)",
    )
    parser.add_argument(
        "--workers-endpoint",
        default=None,
        metavar="ENDPOINT",
        help="where distributed workers rendezvous: host:port (binds a "
        "coordinator socket there); required with --executor distributed",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="persistent result-cache directory "
        f"(default {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="re-run a job up to N times after a transient failure "
        "(worker crash, timeout, injected fault; default 2). Retried "
        "runs are bit-identical to first-try runs.",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any single simulation running longer than "
        "this (default: no limit; needs --workers > 1 -- an in-process "
        "run cannot be interrupted safely)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first job that fails past its retry budget "
        "instead of rendering FAILED/TIMEOUT cells in a partial table",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="do not read or write per-spec sweep manifests (an "
        "interrupted --spec sweep then loses the 'resumed N' accounting; "
        "finished results still come back from the run cache)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-run pipeline telemetry and write a validated "
        "JSON run report per experiment (<figure>_report.json under "
        "--out, default results/)",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        metavar="FILE",
        help="write the wall-time span trace (trace prep, warm-up, "
        "measurement, cache traffic) as JSON to FILE",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the span summary table after the run",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        help="also write each figure's table to this directory",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: with --out, also write "
        "<figure>.json files; without --out, print each figure as a "
        "JSON document on stdout (status lines go to stderr)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_figures:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if not args.experiments and not args.specs:
        print("no experiments given (try --list-figures, 'all' or --spec FILE)",
              file=sys.stderr)
        return 2
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    # (label, runner, spec) triples: named experiments then spec files.
    tasks: list[tuple[str, object, ExperimentSpec | None]] = [
        (name, EXPERIMENTS[name], None) for name in names
    ]
    for path in args.specs:
        try:
            spec = load_spec(path)
        except SpecError as exc:
            print(f"bad spec: {exc}", file=sys.stderr)
            return 2
        tasks.append((spec.name, None, spec))

    # JSON-stream mode: one combined {name: figure} object on stdout at
    # the end, everything else on stderr as it happens.
    json_stream = args.json and not args.out
    status_stream = sys.stderr if json_stream else sys.stdout
    streamed: dict[str, object] = {}

    tracer = None
    if args.metrics or args.trace_out or args.profile:
        from repro.telemetry import Tracer

        tracer = Tracer()
    benchmarks = None
    if args.benchmarks:
        benchmarks = [get_kernel(name) for name in args.benchmarks]
    try:
        execution = ExecutionPolicy(
            max_retries=args.max_retries,
            job_timeout=args.job_timeout,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        print(f"bad execution policy: {exc}", file=sys.stderr)
        return 2
    if args.executor == "distributed" and not args.workers_endpoint:
        print(
            "--executor distributed needs --workers-endpoint host:port",
            file=sys.stderr,
        )
        return 2
    if args.workers_endpoint is not None:
        from repro.distwork.protocol import parse_endpoint

        try:
            parse_endpoint(args.workers_endpoint)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    cache = None if args.no_cache else RunCache(args.cache_dir, tracer=tracer)
    bench = Workbench(
        instructions=args.instructions,
        seed=args.seed,
        benchmarks=benchmarks,
        workers=args.workers,
        cache=cache,
        metrics=args.metrics,
        tracer=tracer,
        execution=execution,
        executor=args.executor,
        workers_endpoint=args.workers_endpoint,
    )
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    report_dir = args.out if args.out else pathlib.Path("results")

    try:
        return _run_tasks(
            args, tasks, bench, cache, tracer, benchmarks, execution,
            json_stream, status_stream, streamed, report_dir,
        )
    finally:
        # Stops distributed workers cleanly; a no-op for the local pool.
        bench.close_executors()


def _run_tasks(
    args,
    tasks,
    bench,
    cache,
    tracer,
    benchmarks,
    execution,
    json_stream,
    status_stream,
    streamed,
    report_dir,
) -> int:
    for name, experiment, spec in tasks:
        start = time.time()
        hits_before = cache.hits if cache else 0
        stores_before = cache.stores if cache else 0
        quarantined_before = cache.quarantined if cache else 0
        simulated_before = bench.simulations_run
        failed_before = len(bench.failed_outcomes())
        if spec is not None:
            manifest = None
            if cache is not None and not args.no_resume:
                manifest = SweepManifest.open(
                    default_manifest_dir(cache.root), spec_hash(spec), spec.name
                )
            def experiment(b, _spec=spec, _m=manifest):
                return run_spec(b, _spec, manifest=_m)
        try:
            if args.seeds > 1:
                # Every seed's workbench shares the main bench's executor,
                # so a distributed sweep keeps one coordinator (closed once
                # by main) instead of silently running the seeds locally.
                figure = run_seeded(
                    experiment,
                    seeds=range(args.seed, args.seed + args.seeds),
                    instructions=args.instructions,
                    benchmarks=benchmarks,
                    workers=args.workers,
                    cache=cache,
                    execution=execution,
                    executor=bench.resolve_executor(),
                )
            else:
                figure = experiment(bench)
        except SpecError as exc:
            print(f"bad spec: {exc}", file=sys.stderr)
            return 2
        except RunFailureError as exc:
            print(f"fail-fast: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            # Settled results were flushed to the persistent cache (and
            # the sweep manifest) as they completed; nothing is lost.
            print(
                "\ninterrupted -- completed results are persisted; "
                "re-run the same command to resume",
                file=sys.stderr,
            )
            return 130
        if args.seeds > 1:
            # The per-seed workbenches are internal to run_seeded; with a
            # cache every executed simulation is stored exactly once.
            simulated = (cache.stores - stores_before) if cache else -1
        else:
            simulated = bench.simulations_run - simulated_before
        elapsed = time.time() - start
        failed = len(bench.failed_outcomes()) - failed_before
        status = f"[{name}: {elapsed:.1f}s"
        if cache is not None:
            status += f"; cache hits={cache.hits - hits_before}"
        if simulated >= 0:
            status += f"; simulated={simulated}"
        if failed > 0:
            status += f"; failed={failed}"
        if cache is not None and cache.quarantined > quarantined_before:
            status += f"; quarantined={cache.quarantined - quarantined_before}"
        status += "]"
        if json_stream:
            streamed[name] = figure.to_dict()
            print(status, file=status_stream)
        else:
            print(f"\n{figure}\n{status}")
        if args.out:
            slug = figure.figure_id.lower().replace(" ", "").replace(".", "")
            (args.out / f"{slug}.txt").write_text(str(figure) + "\n")
            if args.json:
                (args.out / f"{slug}.json").write_text(
                    json.dumps(figure.to_dict(), indent=2) + "\n"
                )
        if args.metrics:
            if args.seeds > 1:
                print(
                    f"[{name}: run report skipped -- --metrics reports "
                    "cover single-seed invocations]",
                    file=status_stream,
                )
            else:
                jobs = spec.jobs(bench) if spec is not None else PLANS[name](bench)
                report = run_report(
                    bench,
                    name,
                    jobs,
                    figure=figure.to_dict(),
                    tracer=tracer,
                    cache_stats=cache.stats() if cache else None,
                    elapsed_seconds=elapsed,
                )
                report_dir.mkdir(parents=True, exist_ok=True)
                report_path = report_dir / f"{name}_report.json"
                report_path.write_text(report.to_json())
                print(report.render(), file=status_stream)
                print(f"[run report: {report_path}]", file=status_stream)
    if args.trace_out and tracer is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(tracer.to_dict(), indent=2) + "\n")
        print(f"[trace: {args.trace_out}]", file=status_stream)
    if args.profile and tracer is not None:
        print(tracer.format_summary(), file=status_stream)
    if json_stream:
        print(json.dumps(streamed, indent=2))
    return 0
