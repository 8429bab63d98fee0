"""Figure 6: where the lost cycles went.

(a) Contention-stall events on the critical path, split by whether the
stalled instruction was predicted critical -- the paper finds up to
two-thirds hit correctly-predicted-critical instructions, so the problem is
prioritizing *among* criticals, not prediction accuracy.

(b) Forwarding-delay events on the critical path, by steering cause -- the
paper finds load-balance steering dominates, except in the
convergent-dataflow benchmarks (bzip2, crafty) where dyadics do.

Event counts are reported per 10k instructions so benchmarks of different
trace lengths are comparable (the paper plots absolute millions over 100M
instructions).
"""

from __future__ import annotations

from repro.experiments.figure import FigureData, annotate_failures
from repro.experiments.harness import Workbench
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec

# Registry name: the key this figure goes by in EXPERIMENTS / PLANS
# and on the CLI.
NAME = "figure6"

__all__ = ["NAME", "plan_figure6", "run_figure6", "spec_figure6"]

CLUSTER_COUNTS = (2, 4, 8)


def spec_figure6(forwarding_latency: int = 2) -> ExperimentSpec:
    """Figure 6's sweep as a declarative spec."""
    return ExperimentSpec(
        name=NAME,
        figure=NAME,
        description="Critical-path stall events under focused steering",
        sweeps=(
            SweepSpec(
                machines=tuple(
                    MachineSpec(count, forwarding_latency=forwarding_latency)
                    for count in CLUSTER_COUNTS
                ),
                policies=("focused",),
            ),
        ),
    )


def plan_figure6(bench: Workbench, forwarding_latency: int = 2):
    """The runs Figure 6 needs, for parallel prefetch."""
    return spec_figure6(forwarding_latency).jobs(bench)


def run_figure6(bench: Workbench, forwarding_latency: int = 2) -> FigureData:
    """Reproduce Figures 6(a) and 6(b) for the focused policy."""
    bench.prefetch(plan_figure6(bench, forwarding_latency))
    figure = FigureData(
        figure_id="Figure 6",
        title="Critical-path stall events per 10k instructions (focused)",
        headers=[
            "benchmark",
            "clusters",
            "contention:critical",
            "contention:other",
            "fwd:load_bal",
            "fwd:dyadic",
            "fwd:other",
        ],
        notes=[
            "paper 6(a): contention events predominantly hit "
            "predicted-critical instructions",
            "paper 6(b): load-balance steering dominates forwarding delay; "
            "dyadics dominate only in bzip2/crafty",
        ],
    )
    totals = {c: [0.0] * 5 for c in CLUSTER_COUNTS}
    ok_counts = {c: 0 for c in CLUSTER_COUNTS}
    failed = []
    for spec in bench.benchmarks:
        for count in CLUSTER_COUNTS:
            out = bench.outcome(
                spec, bench.clustered(count, forwarding_latency), "focused"
            )
            if not out.ok:
                failed.append(out)
                figure.add_row(spec.name, count, *([out.failure.label()] * 5))
                continue
            contention, forwarding = out.result.lost_cycle_events
            scale = 10_000 / out.result.instructions
            values = [
                contention.predicted_critical * scale,
                contention.other * scale,
                forwarding.load_balance * scale,
                forwarding.dyadic * scale,
                forwarding.other * scale,
            ]
            figure.add_row(spec.name, count, *values)
            for i, value in enumerate(values):
                totals[count][i] += value
            ok_counts[count] += 1
    for count in CLUSTER_COUNTS:
        n = ok_counts[count]
        figure.add_row(
            "AVE", count, *[v / n if n else float("nan") for v in totals[count]]
        )
    annotate_failures(figure, failed)
    return figure
