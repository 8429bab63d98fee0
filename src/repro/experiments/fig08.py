"""Figure 8: the distribution of likelihood-of-criticality values.

The exact per-PC LoC (fraction of dynamic instances on the critical path)
is computed on the monolithic machine, and dynamic instructions are
histogrammed into 5%-wide LoC bins.  The paper's distribution has a large
never-critical spike (53% of dynamic instructions at LoC ~0) and a wide
tail; the dashed line at 12.5% marks the granularity of the Fields binary
predictor (1-in-8 critical instances suffice to classify critical).
"""

from __future__ import annotations

from repro.core.config import monolithic_machine
from repro.experiments.figure import FigureData
from repro.experiments.harness import Workbench
from repro.specs import ExperimentSpec, MachineSpec, SweepSpec

# Registry name: the key this figure goes by in EXPERIMENTS / PLANS
# and on the CLI.
NAME = "figure8"

__all__ = ["NAME", "plan_figure8", "run_figure8", "spec_figure8"]

BIN_PERCENT = 5
FIELDS_THRESHOLD_PERCENT = 100 / 8  # 1-in-8 instances => predicted critical


def spec_figure8() -> ExperimentSpec:
    """Figure 8's monolithic probe runs as a declarative spec."""
    return ExperimentSpec(
        name=NAME,
        figure=NAME,
        description="LoC distribution probes on the monolithic machine",
        sweeps=(
            SweepSpec(machines=(MachineSpec(1),), policies=("focused",)),
        ),
    )


def plan_figure8(bench: Workbench):
    """The runs Figure 8 needs, for parallel prefetch."""
    return spec_figure8().jobs(bench)


def run_figure8(bench: Workbench) -> FigureData:
    """Reproduce Figure 8: % of dynamic instructions per 5% LoC bin."""
    bench.prefetch(plan_figure8(bench))
    bins = [0] * (100 // BIN_PERCENT + 1)
    total = 0
    for spec in bench.benchmarks:
        result = bench.run(spec, monolithic_machine(), "focused")
        for pc, count in result.pc_counts.items():
            value = result.loc_by_pc[pc]
            bins[min(len(bins) - 1, int(value * 100) // BIN_PERCENT)] += count
            total += count

    figure = FigureData(
        figure_id="Figure 8",
        title="Distribution of LoC values (% of dynamic instructions)",
        headers=["loc_bin", "percent"],
        notes=[
            f"Fields binary predictor classifies critical above "
            f"{FIELDS_THRESHOLD_PERCENT:.1f}% LoC",
            "paper: 53% of dynamic instructions fall in the 0-5% bin; the "
            "rest spread widely",
        ],
    )
    for i, count in enumerate(bins):
        low = i * BIN_PERCENT
        label = f"{low}-{min(100, low + BIN_PERCENT - 1)}%"
        figure.add_row(label, 100.0 * count / total if total else 0.0)
    return figure
