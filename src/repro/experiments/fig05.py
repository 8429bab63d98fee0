"""Figure 5: critical-path breakdown under focused steering and scheduling.

For the monolithic and 2-/4-/8-cluster machines, every cycle of runtime is
attributed to one critical-path category; stacks are normalized to the
monolithic machine's CPI, so the total column reproduces Figure 4's bars
while the segments show *where* the extra cycles went (forwarding delay and
contention grow with cluster count).
"""

from __future__ import annotations

from repro.analysis.breakdown import FIGURE5_SEGMENTS
from repro.core.config import monolithic_machine
from repro.experiments.figure import FigureData, annotate_failures
from repro.experiments.harness import Workbench
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec

# Registry name: the key this figure goes by in EXPERIMENTS / PLANS
# and on the CLI.
NAME = "figure5"

__all__ = ["NAME", "plan_figure5", "run_figure5", "spec_figure5"]

CONFIG_LABELS = (1, 2, 4, 8)


def spec_figure5(forwarding_latency: int = 2) -> ExperimentSpec:
    """Figure 5's sweep as a declarative spec."""
    return ExperimentSpec(
        name=NAME,
        figure=NAME,
        description="Critical-path breakdown under focused steering",
        sweeps=(
            SweepSpec(
                machines=tuple(
                    MachineSpec(1)
                    if label == 1
                    else MachineSpec(label, forwarding_latency=forwarding_latency)
                    for label in CONFIG_LABELS
                ),
                policies=("focused",),
            ),
        ),
    )


def plan_figure5(bench: Workbench, forwarding_latency: int = 2):
    """The runs Figure 5 needs, for parallel prefetch."""
    return spec_figure5(forwarding_latency).jobs(bench)


def run_figure5(bench: Workbench, forwarding_latency: int = 2) -> FigureData:
    """Reproduce Figure 5: one row per (benchmark, cluster count)."""
    bench.prefetch(plan_figure5(bench, forwarding_latency))
    figure = FigureData(
        figure_id="Figure 5",
        title="Critical path breakdown, focused steering (normalized CPI)",
        headers=["benchmark", "clusters", *FIGURE5_SEGMENTS, "total"],
        notes=[
            "segments sum to the run's CPI normalized to the monolithic "
            "machine; fwd_delay and contention are the clustering penalties",
            "'commit' cycles are folded into 'execute' as in the paper's "
            "seven-segment stacks",
        ],
    )
    averages = {
        label: [0.0] * (len(FIGURE5_SEGMENTS) + 1) for label in CONFIG_LABELS
    }
    ok_counts = {label: 0 for label in CONFIG_LABELS}
    failed = []
    width = len(FIGURE5_SEGMENTS) + 1
    for spec in bench.benchmarks:
        base_out = bench.outcome(spec, monolithic_machine(), "focused")
        if not base_out.ok:
            # The monolithic run is both the label-1 stack and the
            # normalization base, so the whole benchmark fails.
            failed.append(base_out)
            cell = base_out.failure.label()
            for label in CONFIG_LABELS:
                figure.add_row(spec.name, label, *([cell] * width))
            continue
        base_cpi = base_out.result.cpi
        for label in CONFIG_LABELS:
            config = (
                monolithic_machine()
                if label == 1
                else bench.clustered(label, forwarding_latency)
            )
            out = bench.outcome(spec, config, "focused")
            if not out.ok:
                failed.append(out)
                figure.add_row(
                    spec.name, label, *([out.failure.label()] * width)
                )
                continue
            segments = out.result.breakdown.normalized(base_cpi)
            values = [segments[name] for name in FIGURE5_SEGMENTS]
            total = sum(values)
            figure.add_row(spec.name, label, *values, total)
            for i, value in enumerate([*values, total]):
                averages[label][i] += value
            ok_counts[label] += 1
    for label in CONFIG_LABELS:
        n = ok_counts[label]
        figure.add_row(
            "AVE",
            label,
            *[v / n if n else float("nan") for v in averages[label]],
        )
    annotate_failures(figure, failed)
    return figure
