"""Figure 2: idealized list scheduling.

For each benchmark, list-schedule the monolithic machine's retired trace
onto the 2-, 4- and 8-cluster configurations and report CPI normalized to
the list-scheduled 1x8w configuration.  The paper's finding: all clustered
configurations average under ~2% slower, with bzip2, crafty and vpr the
outliers (convergent dataflow, Section 2.2).
"""

from __future__ import annotations

from repro.core.config import clustered_machine, monolithic_machine
from repro.experiments.figure import FigureData, annotate_failures
from repro.experiments.harness import Workbench
from repro.idealized.list_scheduler import list_schedule
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec

# Registry name: the key this figure goes by in EXPERIMENTS / PLANS
# and on the CLI.
NAME = "figure2"

__all__ = ["NAME", "plan_figure2", "run_figure2", "spec_figure2"]

CLUSTER_COUNTS = (2, 4, 8)


def spec_figure2(forwarding_latency: int = 2) -> ExperimentSpec:
    """Figure 2's simulator runs as a declarative spec.

    Only the monolithic latency-probe runs are simulator jobs; the list
    scheduling itself happens in-process in :func:`run_figure2`.
    """
    return ExperimentSpec(
        name=NAME,
        figure=NAME,
        description="Idealized list scheduling (latency probes)",
        sweeps=(
            SweepSpec(machines=(MachineSpec(1),), policies=("dependence",)),
        ),
    )


def plan_figure2(bench: Workbench, forwarding_latency: int = 2):
    """The simulator runs Figure 2 needs (list scheduling stays in-process)."""
    return spec_figure2(forwarding_latency).jobs(bench)


def run_figure2(bench: Workbench, forwarding_latency: int = 2) -> FigureData:
    """Reproduce Figure 2 rows (one per benchmark, plus the average)."""
    bench.prefetch(plan_figure2(bench, forwarding_latency))
    figure = FigureData(
        figure_id="Figure 2",
        title="Idealized list scheduling (normalized CPI vs 1x8w)",
        headers=["benchmark", "2x4w", "4x2w", "8x1w"],
        notes=[
            "paper: all configurations average < 2% slower than monolithic; "
            "bzip2/crafty/vpr worst (convergent dataflow)",
        ],
    )
    sums = [0.0] * len(CLUSTER_COUNTS)
    ok_count = 0
    failed = []
    for spec in bench.benchmarks:
        out = bench.outcome(spec, monolithic_machine(), "dependence")
        if not out.ok:
            # The latency probe feeds the in-process list scheduler, so
            # its failure fails every cell of this benchmark's row.
            failed.append(out)
            label = out.failure.label()
            figure.add_row(spec.name, *([label] * len(CLUSTER_COUNTS)))
            continue
        prepared = bench.prepare(spec)
        latencies = out.result.latencies
        base = list_schedule(
            prepared.trace,
            prepared.dependences,
            prepared.mispredicted,
            monolithic_machine(),
            latencies,
        ).cpi
        normalized = []
        for i, count in enumerate(CLUSTER_COUNTS):
            config = clustered_machine(count, forwarding_latency=forwarding_latency)
            result = list_schedule(
                prepared.trace,
                prepared.dependences,
                prepared.mispredicted,
                config,
                latencies,
            )
            value = result.cpi / base
            normalized.append(value)
            sums[i] += value
        figure.add_row(spec.name, *normalized)
        ok_count += 1
    if ok_count:
        figure.add_row("AVE", *[s / ok_count for s in sums])
    annotate_failures(figure, failed)
    return figure
