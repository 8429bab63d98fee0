"""The ``repro`` console command.

A thin front door over the experiment runner plus spec-file tooling::

    repro figure14 --workers 8          # any figure (repro --list-figures)
    repro --spec specs/custom_sweep.json
    repro specs list                    # registered components + presets
    repro specs show figure14           # an experiment's spec as JSON
    repro specs validate specs/*.json   # schema-check spec files
    repro specs status specs/*.json     # checkpoint progress per sweep
    repro serve --port 8035 --workers 4 # the async job API (repro.service)
    repro worker 127.0.0.1:7070         # serve a distributed sweep (repro.distwork)

``python -m repro`` forwards here, so both spellings are equivalent.
Everything that is not a ``specs``, ``serve`` or ``worker`` subcommand
is handed to :func:`repro.experiments.runner.main` unchanged.
"""

from __future__ import annotations

import argparse
import sys

from repro.specs import (
    PREDICTORS,
    PRESETS,
    SCHEDULERS,
    STEERING,
    SpecError,
    load_spec,
    policy_names,
    spec_hash,
)

__all__ = ["main"]


def _specs_list() -> int:
    from repro.experiments import SPECS

    print("policy presets:", ", ".join(policy_names()))
    extras = sorted(set(PRESETS) - set(policy_names()))
    if extras:
        print("extra presets:", ", ".join(extras))
    print("steering kinds:", ", ".join(STEERING.names()))
    print("scheduler kinds:", ", ".join(SCHEDULERS.names()))
    print("predictor kinds:", ", ".join(PREDICTORS.names()))
    print("experiment specs:", ", ".join(SPECS))
    return 0


def _machine_table(spec) -> list[str]:
    """Per-cluster resource tables for every distinct machine in ``spec``.

    Rendered as ``#``-prefixed comment lines (the caller sends them to
    stderr) so ``repro specs show NAME > specs/NAME.json`` still writes
    pure JSON to stdout.
    """
    lines: list[str] = []
    seen = set()
    for sweep in spec.sweeps:
        for machine in sweep.machines:
            if machine in seen:
                continue
            seen.add(machine)
            config = machine.build()
            lines.append(
                f"# machine {config.name} (fwd {config.forwarding_latency}, "
                f"rob {config.rob_size})"
            )
            lines.append(
                "#   cluster  width  int  fp  mem  window  latency-overrides"
            )
            for index, cluster in enumerate(config.clusters):
                overrides = (
                    ",".join(
                        f"{op}={cycles}" for op, cycles in cluster.latency_overrides
                    )
                    or "-"
                )
                lines.append(
                    f"#   {index:<7}  {cluster.issue_width:<5}  "
                    f"{cluster.int_ports:<3}  {cluster.fp_ports:<2}  "
                    f"{cluster.mem_ports:<3}  {cluster.window_size:<6}  "
                    f"{overrides}"
                )
    return lines


def _specs_show(name: str) -> int:
    from repro.experiments import SPECS

    builder = SPECS.get(name)
    if builder is not None:
        spec = SPECS[name]()
        print(spec.to_json(), end="")
        for line in _machine_table(spec):
            print(line, file=sys.stderr)
        return 0
    preset = PRESETS.get(name)
    if preset is not None:
        import json

        print(json.dumps(preset.to_dict(), indent=2))
        print(f"# canonical hash: {spec_hash(preset)}", file=sys.stderr)
        return 0
    print(
        f"unknown spec {name!r}; experiments: {', '.join(SPECS)}; "
        f"presets: {', '.join(sorted(PRESETS))}",
        file=sys.stderr,
    )
    return 2


def _specs_validate(paths: list[str]) -> int:
    status = 0
    for path in paths:
        try:
            spec = load_spec(path)
        except SpecError as exc:
            print(f"FAIL {path}: {exc}")
            status = 1
            continue
        print(
            f"ok   {path}: {spec.name!r} "
            f"({len(spec.sweeps)} sweep{'s' if len(spec.sweeps) != 1 else ''}, "
            f"hash {spec_hash(spec)[:12]})"
        )
    return status


def _specs_status(paths: list[str], cache_dir: str | None) -> int:
    """Report each spec's sweep-manifest progress (checkpoint/resume state)."""
    import pathlib

    from repro.experiments.cache import default_cache_dir
    from repro.experiments.manifest import SweepManifest, default_manifest_dir

    directory = default_manifest_dir(
        pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
    )
    status = 0
    for path in paths:
        try:
            spec = load_spec(path)
        except SpecError as exc:
            print(f"FAIL {path}: {exc}")
            status = 1
            continue
        manifest = SweepManifest.open(directory, spec_hash(spec), spec.name)
        if not manifest.path.exists():
            print(f"--   {path}: {spec.name!r} has no sweep manifest (never run, "
                  "fully cached on first pass, run with --no-resume, or run only "
                  "through `repro serve`: see GET /v1/experiments/{id})")
            continue
        summary = manifest.summary()
        line = (
            f"ok   {path}: {spec.name!r} recorded {summary['jobs']} job(s): "
            f"{summary['completed']} completed, {summary['failed']} failed"
        )
        failures = [
            (key, entry)
            for key, entry in manifest.entries.items()
            if entry.get("status") == "failed"
        ]
        print(line)
        for key, entry in failures:
            failure = entry.get("failure") or {}
            print(
                f"     failed {entry.get('kernel')}/{entry.get('config')}: "
                f"{failure.get('kind', '?')} after "
                f"{entry.get('attempts', '?')} attempt(s) [{key[:12]}]"
            )
    return status


def _specs_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro specs",
        description="Inspect and validate experiment/policy specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="registered component kinds, presets and specs")
    show = sub.add_parser("show", help="print a spec (experiment or preset) as JSON")
    show.add_argument("name")
    validate = sub.add_parser("validate", help="schema-check spec JSON files")
    validate.add_argument("paths", nargs="+", metavar="FILE")
    status = sub.add_parser(
        "status",
        help="show sweep-manifest progress (completed/failed jobs) per spec",
    )
    status.add_argument("paths", nargs="+", metavar="FILE")
    status.add_argument(
        "--cache-dir",
        default=None,
        help="cache root whose manifests to read (default: the runner's)",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return _specs_list()
    if args.command == "show":
        return _specs_show(args.name)
    if args.command == "status":
        return _specs_status(args.paths, args.cache_dir)
    return _specs_validate(args.paths)


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the simulation job service: POST experiment specs to "
            "/v1/experiments, stream progress over SSE, fetch run reports. "
            "See docs/API.md ('repro.service')."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8035, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="simulation worker processes (0/1 = in-process serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent run-cache root (default: the runner's cache dir)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent cache (dedupe still works in-memory)",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="default per-run instruction count for specs that do not set one",
    )
    parser.add_argument("--seed", type=int, default=0, help="default workload seed")
    parser.add_argument(
        "--quota",
        type=float,
        default=None,
        help="per-client token-bucket capacity, in jobs (default: unmetered)",
    )
    parser.add_argument(
        "--quota-refill",
        type=float,
        default=0.0,
        help="tokens refilled per second per client (needs --quota)",
    )
    from repro.experiments.executor import executor_names

    parser.add_argument(
        "--executor",
        choices=executor_names(),
        default="local",
        help="execution backend for simulation jobs (default: local)",
    )
    parser.add_argument(
        "--workers-endpoint",
        default=None,
        help=(
            "host:port where 'repro worker' processes rendezvous "
            "(required with --executor distributed)"
        ),
    )
    parser.add_argument(
        "--no-durable",
        action="store_true",
        help=(
            "disable the crash-safe experiment store (<cache>/service/); "
            "submissions then live only in process memory"
        ),
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="shed submissions (503 overloaded) past this many in-flight "
        "experiments (default: unbounded)",
    )
    parser.add_argument(
        "--max-client-inflight",
        type=int,
        default=None,
        help="per-client cap on in-flight experiments (default: unbounded)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive distributed-executor failures before the circuit "
        "breaker opens (default: 3)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds an open circuit waits before a half-open probe "
        "(default: 30)",
    )
    parser.add_argument(
        "--breaker-fallback",
        choices=("local", "hold"),
        default="local",
        help="what an open circuit does with jobs: run on the local pool, "
        "or hold until the backend recovers (default: local)",
    )
    args = parser.parse_args(argv)
    if args.executor == "distributed" and not args.workers_endpoint:
        print(
            "repro serve: --executor distributed needs --workers-endpoint "
            "host:port",
            file=sys.stderr,
        )
        return 2
    if args.workers_endpoint is not None:
        from repro.distwork.protocol import parse_endpoint

        try:
            parse_endpoint(args.workers_endpoint)
        except ValueError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2
    from repro.experiments.harness import DEFAULT_INSTRUCTIONS
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        instructions=(
            args.instructions if args.instructions is not None else DEFAULT_INSTRUCTIONS
        ),
        seed=args.seed,
        quota=args.quota,
        quota_refill=args.quota_refill,
        executor=args.executor,
        workers_endpoint=args.workers_endpoint,
        durable=not args.no_durable,
        max_queue_depth=args.max_queue_depth,
        max_client_inflight=args.max_client_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        breaker_fallback=args.breaker_fallback,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "specs":
        return _specs_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "worker":
        from repro.distwork.worker import main as worker_main

        return worker_main(argv[1:])
    from repro.experiments.runner import main as runner_main

    return runner_main(argv)

